// Trace container for side-channel analysis: a matrix of power samples with
// the per-trace public data (plaintext byte) the attacker knows.
#pragma once

#include <cstdint>
#include <vector>

namespace pgmcml::sca {

class TraceSet {
 public:
  TraceSet() = default;
  explicit TraceSet(std::size_t samples_per_trace)
      : samples_(samples_per_trace) {}

  void add(std::uint8_t plaintext, std::vector<double> trace);

  /// Preallocates room for n traces (bulk acquisition avoids regrowth).
  void reserve(std::size_t n);

  std::size_t num_traces() const { return plaintexts_.size(); }
  std::size_t samples_per_trace() const { return samples_; }
  std::uint8_t plaintext(std::size_t i) const { return plaintexts_.at(i); }
  const std::vector<double>& trace(std::size_t i) const { return data_.at(i); }

 private:
  std::size_t samples_ = 0;
  std::vector<std::uint8_t> plaintexts_;
  std::vector<std::vector<double>> data_;
};

}  // namespace pgmcml::sca
