// Incremental analysis cache: content-addressed, disk-backed memoization
// of per-group verification results.
//
// The dependency analyzer (paper §5) already guarantees that apps in
// different related sets cannot interact — so a group's CheckResult is a
// pure function of the group key (cache/fingerprint.hpp).  This store
// memoizes those results across runs: re-checking an unchanged
// deployment becomes a handful of cache reads, and reconfiguring one
// app re-verifies only the groups that contain it.
//
// Two layers, both keyed by the group fingerprint:
//   * an in-memory LRU (bounded entry count) serving repeats within a
//     process — attribution probes re-enumerate the same app-alone
//     groups across configurations, which this layer absorbs;
//   * an optional disk store (`CacheConfig::dir`): one JSON file per
//     entry named <digest-hex>.json, schema "iotsan.cache/1", written
//     via temp-file + atomic rename.  Corrupt, truncated, stale-version,
//     or digest-colliding entries are treated as misses, never errors.
//
// Concurrency: all public methods are thread-safe.  FetchOrCompute is
// single-flight per key — when parallel related-set groups (or parallel
// attribution configs) race on one key, one caller computes while the
// rest wait and reuse its result, so `--jobs N` never duplicates work.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cache/fingerprint.hpp"
#include "checker/checker.hpp"

namespace iotsan::cache {

/// Schema identifier embedded in every cache entry.
inline constexpr const char* kCacheSchema = "iotsan.cache/1";

struct CacheConfig {
  /// Disk store directory; empty = in-memory only.
  std::string dir;
  /// In-memory LRU capacity (entries); 0 disables the memory layer.
  std::size_t memory_entries = 256;
  /// Version baked into keys and entries.  Empty = the build version;
  /// tests override it to exercise version invalidation.
  std::string version;
};

/// True when `result` is a pure function of its group key, so the cache
/// and the fleet registry may replay it.  Budget-stopped runs depend on
/// wall clock, and a bitstate search on more than one lane (the
/// `result.jobs` the search recorded) races on bit insertions, so its
/// omission set differs run to run (docs/caching.md).
bool Replayable(const checker::CheckResult& result);

/// Aggregate over a cache directory (the `iotsan cache` subcommand).
struct DirStats {
  std::uint64_t entries = 0;  // readable entries with the current schema
  std::uint64_t bytes = 0;    // total size of all entry files
  std::uint64_t stale = 0;    // entries recorded by another version
  std::uint64_t corrupt = 0;  // unreadable / wrong-schema entries
  std::uint64_t removed = 0;  // files deleted (prune/clear)
};

class ResultCache {
 public:
  explicit ResultCache(CacheConfig config);

  /// The memoized result for `key`, or nullopt.  Checks the memory LRU,
  /// then disk; a disk hit is promoted into the LRU.  Ticks cache.*
  /// telemetry.
  std::optional<checker::CheckResult> Lookup(const GroupKey& key);

  /// Memoizes `result` under `key` (memory + disk).  A result that is
  /// not Replayable is refused and counted as cache.store_skips.
  void Store(const GroupKey& key, const checker::CheckResult& result);

  /// Single-flight memoized call: Lookup, else run `compute` and Store.
  /// Concurrent callers with the same key wait for the first's result
  /// instead of recomputing (cache.singleflight_waits).  If the leader
  /// throws, one waiter takes over the computation.
  checker::CheckResult FetchOrCompute(
      const GroupKey& key,
      const std::function<checker::CheckResult()>& compute);

  const CacheConfig& config() const { return config_; }

  /// Estimated heap footprint of the in-memory LRU layer, in bytes —
  /// the value published to the memory.cache_resident_bytes gauge on
  /// every store/eviction.
  std::uint64_t resident_bytes() const;

  /// The version string keys are minted with (config override or the
  /// build version).
  const std::string& version() const { return version_; }

  // ---- Maintenance (CLI `iotsan cache stats|prune|clear`) ----

  /// Scans `dir` without modifying it.
  static DirStats Scan(const std::string& dir, const std::string& version);
  /// Deletes corrupt and stale-version entries; keeps current ones.
  static DirStats Prune(const std::string& dir, const std::string& version);
  /// Deletes every cache entry file in `dir`.
  static DirStats Clear(const std::string& dir);

 private:
  struct InFlight;

  std::optional<checker::CheckResult> LookupMemory(const GroupKey& key);
  std::optional<checker::CheckResult> LookupDisk(const GroupKey& key);
  void StoreMemory(const GroupKey& key, const checker::CheckResult& result);
  void StoreDisk(const GroupKey& key, const checker::CheckResult& result);
  std::string EntryPath(const GroupKey& key) const;

  CacheConfig config_;
  std::string version_;

  // Memory layer: digest -> (key text, result), LRU-ordered list with a
  // map index.  Guarded by mutex_.
  struct MemoryEntry {
    std::uint64_t digest = 0;
    std::string key_text;
    checker::CheckResult result;
  };
  mutable std::mutex mutex_;
  std::list<MemoryEntry> lru_;  // front = most recent
  std::map<std::uint64_t, std::list<MemoryEntry>::iterator> index_;
  std::uint64_t resident_bytes_ = 0;  // estimated LRU heap footprint

  // Single-flight table: digest -> in-flight computation.
  std::mutex flight_mutex_;
  std::map<std::uint64_t, std::shared_ptr<InFlight>> in_flight_;
};

/// JSON round-trip for one cache entry (exposed for tests and the
/// maintenance commands).  FromJson throws iotsan::Error on wrong
/// schema/version or malformed structure.
json::Value EntryToJson(const GroupKey& key, const std::string& version,
                        const checker::CheckResult& result);
checker::CheckResult EntryFromJson(const json::Value& doc,
                                   const GroupKey& key,
                                   const std::string& version);

}  // namespace iotsan::cache
