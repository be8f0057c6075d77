// Binary trace-file persistence: campaigns are written once and replayed
// through the streaming analysis engine without re-simulating.
//
// Format (little-endian, native IEEE-754 doubles):
//   offset 0   char[8]  magic  "PGMCMLTR"
//   offset 8   u32      version (currently 1)
//   offset 12  u32      samples per trace
//   offset 16  u64      trace count (patched by TraceFileWriter::close())
//   offset 24  records: { u8 plaintext, f64 samples[samples] } * count
//
// The writer streams records as they arrive and back-patches the count on
// close(), so a campaign can be persisted batch-by-batch in bounded memory.
// The reader is a TraceSource: it validates the header and the file length
// against the declared count, and replays in fixed-size batches through one
// reused set of row buffers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "pgmcml/sca/trace_source.hpp"

namespace pgmcml::sca {

class TraceFileWriter {
 public:
  /// Opens `path` for writing and emits the header.  Throws
  /// std::runtime_error when the file cannot be created.
  TraceFileWriter(const std::string& path, std::size_t samples);
  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  /// Appends one trace record.  Throws on sample-count mismatch or I/O error.
  void write(std::uint8_t plaintext, std::span<const double> trace);
  /// Appends every trace of a batch.
  void write_batch(const TraceBatch& batch);

  std::size_t traces_written() const { return count_; }

  /// Back-patches the trace count into the header and closes the file.
  /// Called by the destructor if not called explicitly; call it yourself to
  /// observe I/O errors (the destructor swallows them).
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t samples_;
  std::size_t count_ = 0;
};

/// Streaming reader over a closed trace file.
class TraceFileReader final : public TraceSource {
 public:
  /// Opens and validates `path`.  Throws std::runtime_error on a missing
  /// file, bad magic/version, or a length inconsistent with the header.
  /// A zero-length or shorter-than-header file (a writer crashed before its
  /// first flush) is NOT an error: it reads as a clean empty source
  /// (samples_per_trace() == 0, next() returns false immediately).
  explicit TraceFileReader(const std::string& path,
                           std::size_t batch_size = kDefaultTraceBatch);
  ~TraceFileReader() override;

  TraceFileReader(const TraceFileReader&) = delete;
  TraceFileReader& operator=(const TraceFileReader&) = delete;

  std::size_t samples_per_trace() const override { return samples_; }
  std::size_t size_hint() const override { return count_; }
  bool next(TraceBatch& batch) override;

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t samples_ = 0;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;
  std::size_t batch_size_;
  /// Row buffers reused by every batch (the bounded-memory guarantee).
  std::vector<std::vector<double>> rows_;
};

/// Convenience: streams `source` into a trace file at `path`; returns the
/// number of traces written.
std::size_t write_trace_file(const std::string& path, TraceSource& source);

/// Convenience: materializes a trace file into an in-memory TraceSet (only
/// for campaigns known to fit; large ones should stream via TraceFileReader).
TraceSet read_trace_file(const std::string& path);

}  // namespace pgmcml::sca
