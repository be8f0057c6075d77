#include "pgmcml/cache/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "pgmcml/obs/obs.hpp"

namespace pgmcml::cache {

namespace {

/// Process-wide cache.* counter handles, hoisted once (Registry handles
/// stay valid for the registry's lifetime).
struct ObsCounters {
  obs::Counter hit, miss, evict, store, corrupt, bytes_read, bytes_written;
  ObsCounters() {
    auto& r = obs::Registry::global();
    hit = r.counter("cache.hit");
    miss = r.counter("cache.miss");
    evict = r.counter("cache.evict");
    store = r.counter("cache.store");
    corrupt = r.counter("cache.corrupt");
    bytes_read = r.counter("cache.bytes_read");
    bytes_written = r.counter("cache.bytes_written");
  }
};

ObsCounters& counters() {
  static ObsCounters c;
  return c;
}

/// On-disk entry envelope: schema + the full key hex (detects hash-prefix
/// file collisions and stale-schema files) around the payload.
constexpr const char* kEnvelopeSchemaField = "cache_schema";
constexpr const char* kEnvelopeKeyField = "key";
constexpr const char* kEnvelopePayloadField = "payload";

}  // namespace

void ResultCache::configure(CacheOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = std::move(options);
  lru_.clear();
  map_.clear();
  if (options_.enabled && !options_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    if (ec) options_.dir.clear();  // degrade to memory-only
  }
  if (options_.max_memory_entries == 0) options_.max_memory_entries = 1;
}

bool ResultCache::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.enabled;
}

std::string ResultCache::entry_path(const CacheKey& key) const {
  return options_.dir + "/" + key.hex() + ".json";
}

void ResultCache::insert_memory_locked(const CacheKey& key,
                                       obs::json::Value payload) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->payload = std::move(payload);
    return;
  }
  lru_.push_front(MemoryEntry{key, std::move(payload)});
  map_[key] = lru_.begin();
  while (lru_.size() > options_.max_memory_entries) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    counters().evict.add();
  }
}

std::optional<obs::json::Value> ResultCache::get(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!options_.enabled) return std::nullopt;

  const auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    counters().hit.add();
    return it->second->payload;
  }

  if (!options_.dir.empty()) {
    const std::string path = entry_path(key);
    if (auto doc = obs::json::load_file(path)) {
      // Validate the envelope; any mismatch is a corrupt entry, not an
      // error.  The load itself already tolerated truncation/garbage.
      const bool schema_ok =
          doc->number_or(kEnvelopeSchemaField, -1.0) == kCacheSchemaVersion;
      const bool key_ok = doc->string_or(kEnvelopeKeyField, "") == key.hex();
      const obs::json::Value* payload = doc->find(kEnvelopePayloadField);
      if (schema_ok && key_ok && payload != nullptr) {
        counters().bytes_read.add(doc->dump().size());
        insert_memory_locked(key, *payload);
        ++stats_.hits;
        counters().hit.add();
        return *payload;
      }
      ++stats_.corrupt;
      counters().corrupt.add();
    } else if (std::filesystem::exists(path)) {
      // Present but unreadable/unparseable: corrupt, fall through to miss.
      ++stats_.corrupt;
      counters().corrupt.add();
    }
  }

  ++stats_.misses;
  counters().miss.add();
  return std::nullopt;
}

void ResultCache::put(const CacheKey& key, const obs::json::Value& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!options_.enabled) return;

  insert_memory_locked(key, payload);
  ++stats_.stores;
  counters().store.add();

  if (!options_.dir.empty()) {
    obs::json::Object envelope;
    envelope.emplace_back(kEnvelopeSchemaField,
                          static_cast<std::uint64_t>(kCacheSchemaVersion));
    envelope.emplace_back(kEnvelopeKeyField, key.hex());
    envelope.emplace_back(kEnvelopePayloadField, payload);
    const obs::json::Value doc{std::move(envelope)};
    if (obs::json::save_file_atomic(entry_path(key), doc)) {
      counters().bytes_written.add(doc.dump().size());
    }
  }
}

void ResultCache::clear_memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  map_.clear();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ResultCache& ResultCache::global() {
  static ResultCache* instance = [] {
    auto* cache = new ResultCache();
    const char* dir = std::getenv("PGMCML_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') {
      CacheOptions opt;
      opt.enabled = true;
      opt.dir = dir;
      cache->configure(std::move(opt));
    }
    return cache;
  }();
  return *instance;
}

}  // namespace pgmcml::cache
