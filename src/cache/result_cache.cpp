#include "cache/result_cache.hpp"

#include <chrono>
#include <condition_variable>
#include <filesystem>

#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::cache {

namespace fs = std::filesystem;

bool Replayable(const checker::CheckResult& result) {
  if (!result.completed) return false;
  if (result.store_fill_ratio > 0 && result.jobs > 1) return false;
  return true;
}

namespace {

/// Estimated heap bytes one memoized entry holds resident: the key
/// text, the violation traces (the dominant term for violating
/// groups), and the fixed struct overhead.  An estimate, not an exact
/// allocator measurement — it only has to make the
/// memory.cache_resident_bytes gauge track growth and eviction.
std::uint64_t ApproxEntryBytes(const std::string& key_text,
                               const checker::CheckResult& result) {
  std::uint64_t bytes = sizeof(checker::CheckResult) + key_text.size();
  bytes += result.depth_histogram.size() * sizeof(std::uint64_t);
  bytes += result.worker_states_explored.size() * sizeof(std::uint64_t);
  for (const checker::Violation& v : result.violations) {
    bytes += sizeof(checker::Violation);
    bytes += v.property_id.size() + v.category.size() +
             v.description.size() + v.detail.size() + v.failure.size();
    for (const std::string& app : v.apps) bytes += app.size();
    for (const std::string& app : v.model_apps) bytes += app.size();
    for (const checker::TraceStep& step : v.steps) {
      bytes += sizeof(checker::TraceStep);
      bytes += step.kind.size() + step.device.size() +
               step.attribute.size() + step.value.size() + step.app.size();
    }
  }
  return bytes;
}

void PublishResidentBytes(std::uint64_t bytes) {
  if (auto* t = telemetry::Active()) t->memory.cache_resident_bytes = bytes;
}

}  // namespace

// ---- Entry serialization -----------------------------------------------------

json::Value EntryToJson(const GroupKey& key, const std::string& version,
                        const checker::CheckResult& result) {
  json::Object doc;
  doc["schema"] = kCacheSchema;
  doc["version"] = version;
  doc["key"] = key.Hex();
  doc["key_text"] = key.text;
  doc["result"] = checker::CheckResultToJson(result);
  return doc;
}

checker::CheckResult EntryFromJson(const json::Value& doc,
                                   const GroupKey& key,
                                   const std::string& version) {
  if (doc.GetString("schema") != kCacheSchema) {
    throw Error("cache entry: wrong schema '" + doc.GetString("schema") +
                "' (want '" + kCacheSchema + "')");
  }
  if (doc.GetString("version") != version) {
    throw Error("cache entry: recorded by version '" +
                doc.GetString("version") + "', this is '" + version + "'");
  }
  if (doc.GetString("key_text") != key.text) {
    // A 64-bit digest collision (or a hand-edited file): the entry is
    // for a different group; serving it would be silently wrong.
    throw Error("cache entry: key document mismatch (digest collision)");
  }
  return checker::CheckResultFromJson(doc.At("result"));
}

// ---- ResultCache -------------------------------------------------------------

namespace {

// Single-flight computations the calling thread leads (FetchOrCompute
// frames on its stack).
thread_local int tls_leading = 0;

struct LeadingScope {
  LeadingScope() { ++tls_leading; }
  ~LeadingScope() { --tls_leading; }
  LeadingScope(const LeadingScope&) = delete;
  LeadingScope& operator=(const LeadingScope&) = delete;
};

}  // namespace

struct ResultCache::InFlight {
  std::string key_text;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;    // leader published a result
  bool failed = false;  // leader threw; a waiter must take over
  checker::CheckResult result;
};

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {
  version_ = config_.version.empty() ? build::GetBuildInfo().version
                                     : config_.version;
  if (!config_.dir.empty()) fs::create_directories(config_.dir);
}

std::string ResultCache::EntryPath(const GroupKey& key) const {
  return config_.dir + "/" + key.Hex() + ".json";
}

std::optional<checker::CheckResult> ResultCache::LookupMemory(
    const GroupKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key.digest);
  if (it == index_.end()) return std::nullopt;
  if (it->second->key_text != key.text) return std::nullopt;  // collision
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->result;
}

std::optional<checker::CheckResult> ResultCache::LookupDisk(
    const GroupKey& key) {
  if (config_.dir.empty()) return std::nullopt;
  const std::string path = EntryPath(key);
  const std::string text = util::ReadFileOrEmpty(path);
  if (text.empty()) return std::nullopt;
  auto* t = telemetry::Active();
  try {
    checker::CheckResult result =
        EntryFromJson(json::Parse(text), key, version_);
    if (t != nullptr) t->cache.bytes_read += text.size();
    return result;
  } catch (const Error& e) {
    // Corrupt, truncated, stale, or colliding entry: a miss, never an
    // error — the subsequent Store overwrites it with a good one.
    if (t != nullptr) ++t->cache.corrupt_entries;
    util::LogDebug("cache", "unreadable entry treated as miss",
                   {{"path", path}, {"reason", e.what()}});
    return std::nullopt;
  }
}

std::optional<checker::CheckResult> ResultCache::Lookup(const GroupKey& key) {
  auto* t = telemetry::Active();
  if (t != nullptr) ++t->cache.lookups;
  // Lookup latency splits by outcome: a hit's cost covers the memory
  // probe plus any disk read + promote; a miss is the probe overhead a
  // fresh check pays before it even starts.
  const auto lookup_start = std::chrono::steady_clock::now();
  auto elapsed_us = [&lookup_start] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - lookup_start)
            .count());
  };
  if (auto hit = LookupMemory(key)) {
    if (t != nullptr) {
      ++t->cache.hits;
      ++t->cache.hits_memory;
      t->cache_hist.lookup_hit_duration_us.Record(elapsed_us());
    }
    return hit;
  }
  if (auto hit = LookupDisk(key)) {
    StoreMemory(key, *hit);  // promote
    if (t != nullptr) {
      ++t->cache.hits;
      ++t->cache.hits_disk;
      t->cache_hist.lookup_hit_duration_us.Record(elapsed_us());
    }
    return hit;
  }
  if (t != nullptr) {
    ++t->cache.misses;
    t->cache_hist.lookup_miss_duration_us.Record(elapsed_us());
  }
  return std::nullopt;
}

void ResultCache::StoreMemory(const GroupKey& key,
                              const checker::CheckResult& result) {
  if (config_.memory_entries == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key.digest);
  if (it != index_.end()) {
    resident_bytes_ -= ApproxEntryBytes(it->second->key_text,
                                        it->second->result);
    it->second->key_text = key.text;
    it->second->result = result;
    resident_bytes_ += ApproxEntryBytes(key.text, result);
    lru_.splice(lru_.begin(), lru_, it->second);
    PublishResidentBytes(resident_bytes_);
    return;
  }
  lru_.push_front({key.digest, key.text, result});
  index_[key.digest] = lru_.begin();
  resident_bytes_ += ApproxEntryBytes(key.text, result);
  while (lru_.size() > config_.memory_entries) {
    resident_bytes_ -= ApproxEntryBytes(lru_.back().key_text,
                                        lru_.back().result);
    index_.erase(lru_.back().digest);
    lru_.pop_back();
    if (auto* t = telemetry::Active()) ++t->cache.evictions;
  }
  PublishResidentBytes(resident_bytes_);
}

std::uint64_t ResultCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

void ResultCache::StoreDisk(const GroupKey& key,
                            const checker::CheckResult& result) {
  if (config_.dir.empty()) return;
  const std::string entry =
      EntryToJson(key, version_, result).Dump(0) + "\n";
  // Atomic tmp+rename (util::AtomicWriteFile); an unwritable cache dir
  // degrades to a silent no-op.
  if (!util::AtomicWriteFile(EntryPath(key), entry)) return;
  if (auto* t = telemetry::Active()) t->cache.bytes_written += entry.size();
}

void ResultCache::Store(const GroupKey& key,
                        const checker::CheckResult& result) {
  auto* t = telemetry::Active();
  if (!Replayable(result)) {
    if (t != nullptr) ++t->cache.store_skips;
    return;
  }
  StoreMemory(key, result);
  StoreDisk(key, result);
  if (t != nullptr) ++t->cache.stores;
}

checker::CheckResult ResultCache::FetchOrCompute(
    const GroupKey& key,
    const std::function<checker::CheckResult()>& compute) {
  for (;;) {
    if (auto hit = Lookup(key)) return *hit;
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      auto it = in_flight_.find(key.digest);
      if (it == in_flight_.end()) {
        flight = std::make_shared<InFlight>();
        flight->key_text = key.text;
        in_flight_[key.digest] = flight;
        leader = true;
      } else {
        flight = it->second;
      }
    }
    if (!leader) {
      // Wait only where waiting cannot close a cycle.  A thread leading a
      // computation, or running a pool task, may be what the leader
      // waits on: checks help-drain nested ParallelFor batches, so a
      // leader's own stack can pick up this very task (or a task of a
      // batch it joins).  Such a caller computes the duplicate itself,
      // without memoizing.  So does a digest collision with a different
      // in-flight group.
      if (flight->key_text != key.text || tls_leading > 0 ||
          util::ThreadPool::InTask()) {
        return compute();
      }
      if (auto* t = telemetry::Active()) ++t->cache.singleflight_waits;
      std::unique_lock<std::mutex> lock(flight->mutex);
      flight->cv.wait(lock, [&] { return flight->done || flight->failed; });
      if (flight->done) return flight->result;
      continue;  // leader threw: retry (possibly becoming the leader)
    }
    checker::CheckResult result;
    try {
      const LeadingScope leading;
      result = compute();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(flight_mutex_);
        in_flight_.erase(key.digest);
      }
      {
        std::lock_guard<std::mutex> lock(flight->mutex);
        flight->failed = true;
      }
      flight->cv.notify_all();
      throw;
    }
    Store(key, result);
    {
      std::lock_guard<std::mutex> lock(flight_mutex_);
      in_flight_.erase(key.digest);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->done = true;
      flight->result = result;
    }
    flight->cv.notify_all();
    return result;
  }
}

// ---- Maintenance -------------------------------------------------------------

namespace {

enum class EntryState { kCurrent, kStale, kCorrupt };

EntryState ClassifyEntry(const fs::path& path, const std::string& version) {
  const std::string text = util::ReadFileOrEmpty(path.string());
  if (text.empty()) return EntryState::kCorrupt;
  try {
    const json::Value doc = json::Parse(text);
    if (doc.GetString("schema") != kCacheSchema) return EntryState::kCorrupt;
    if (!doc.Has("key") || !doc.Has("key_text") || !doc.Has("result")) {
      return EntryState::kCorrupt;
    }
    if (doc.GetString("version") != version) return EntryState::kStale;
    return EntryState::kCurrent;
  } catch (const Error&) {
    return EntryState::kCorrupt;
  }
}

DirStats WalkDir(const std::string& dir, const std::string& version,
                 bool remove_stale, bool remove_all) {
  DirStats stats;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".json") continue;
    stats.bytes += entry.file_size(ec);
    const EntryState state = ClassifyEntry(path, version);
    bool remove = remove_all;
    switch (state) {
      case EntryState::kCurrent: ++stats.entries; break;
      case EntryState::kStale:
        ++stats.stale;
        remove = remove || remove_stale;
        break;
      case EntryState::kCorrupt:
        ++stats.corrupt;
        remove = remove || remove_stale;
        break;
    }
    if (remove && fs::remove(path, ec)) ++stats.removed;
  }
  return stats;
}

}  // namespace

DirStats ResultCache::Scan(const std::string& dir,
                           const std::string& version) {
  return WalkDir(dir, version, /*remove_stale=*/false, /*remove_all=*/false);
}

DirStats ResultCache::Prune(const std::string& dir,
                            const std::string& version) {
  return WalkDir(dir, version, /*remove_stale=*/true, /*remove_all=*/false);
}

DirStats ResultCache::Clear(const std::string& dir) {
  return WalkDir(dir, /*version=*/"", /*remove_stale=*/false,
                 /*remove_all=*/true);
}

}  // namespace iotsan::cache
