// Persistent, versioned deployment storage for the fleet registry
// (docs/fleet.md).
//
// Layout: one directory per deployment id under the registry dir —
//   <dir>/<id>/deployment.json   schema iotsan.deployment/1
//   <dir>/<id>/record.json       status row of the last check
// Writes are atomic tmp+rename (util::AtomicWriteFile), so readers and
// crashed writers never surface a half-written entry; anything
// unreadable or schema-mismatched is treated as not_found, never an
// error.  A small LRU layer keeps hot deployments in memory; the disk
// copy stays authoritative, so eviction only drops the cached copy
// (with no directory configured the store is memory-only and nothing
// is ever evicted).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "config/deployment.hpp"
#include "props/property.hpp"

namespace iotsan::registry {

inline constexpr char kDeploymentSchema[] = "iotsan.deployment/1";
inline constexpr char kRecordSchema[] = "iotsan.deployment.record/1";

/// Same charset as request ids; doubles as path-traversal protection
/// (ids become directory names).
bool IsValidDeploymentId(const std::string& id);

/// One versioned deployment: the config, its inline app sources and
/// user properties, and the monotonic revision token (the HTTP layer's
/// ETag).
struct StoredDeployment {
  std::string id;
  std::uint64_t revision = 0;
  config::Deployment deployment;
  /// App sources by definition name (overrides/extends the corpus).
  std::map<std::string, std::string> app_sources;
  /// Raw JSON array of user property objects ("" = none): kept as text
  /// so persistence round-trips exactly what the client PUT.
  std::string properties_json;

  /// Parses `properties_json` (empty vector when none).
  std::vector<props::Property> ExtraProperties() const;
};

/// The outcome of a deployment's last check: the row the status list
/// serves.  The group results themselves live in the result cache.
struct CheckRecord {
  std::uint64_t revision = 0;   // deployment revision that was checked
  std::string verdict;          // "clean" | "violations"
  int exit_code = 0;
  double check_seconds = 0;     // wall-clock duration of that check
  std::uint64_t groups_total = 0;
  std::uint64_t groups_recomputed = 0;  // groups searched, not cache hits
};

json::Value StoredDeploymentToJson(const StoredDeployment& deployment);
/// Throws iotsan::Error on schema/shape mismatch (callers map that to
/// not_found).
StoredDeployment StoredDeploymentFromJson(const json::Value& doc);
json::Value CheckRecordToJson(const CheckRecord& record);
/// Ignores keys it does not read, so a record that also retains group
/// results (the earlier format) loads as its status row.
CheckRecord CheckRecordFromJson(const json::Value& doc);

struct StoreConfig {
  /// Persistence root ("" = memory-only).
  std::string dir;
  /// LRU capacity of the in-memory layer (deployments resident).
  std::size_t memory_entries = 64;
};

/// Thread-safe store; every returned object is a private copy, so
/// callers can run long checks without holding any store lock.
class DeploymentStore {
 public:
  explicit DeploymentStore(StoreConfig config);

  /// Upserts `deployment` (its `revision` field is ignored) and returns
  /// the new revision: monotonic per id, seeded from disk across
  /// restarts.  Throws iotsan::Error on an invalid id.
  std::uint64_t Put(StoredDeployment deployment);

  std::optional<StoredDeployment> Get(const std::string& id);

  /// Removes the deployment and its record; false when absent.
  bool Remove(const std::string& id);

  /// All deployment ids, sorted (union of memory and disk).
  std::vector<std::string> List();

  std::optional<CheckRecord> GetRecord(const std::string& id);

  /// Stores the record of a finished check.  A no-op when the
  /// deployment was deleted mid-check.
  void PutRecord(const std::string& id, const CheckRecord& record);

  const StoreConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string id;
    StoredDeployment deployment;
    std::optional<CheckRecord> record;
    bool record_loaded = false;  // lazy: record.json read on first ask
  };

  std::string DirFor(const std::string& id) const;
  Entry* FindLocked(const std::string& id);
  Entry* LoadLocked(const std::string& id);
  void TouchLocked(std::list<Entry>::iterator it);
  void EvictLocked();

  StoreConfig config_;
  std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace iotsan::registry
