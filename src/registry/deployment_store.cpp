#include "registry/deployment_store.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include "props/loader.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

namespace iotsan::registry {

namespace fs = std::filesystem;

bool IsValidDeploymentId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  // "." / ".." resolve to other directories; a leading dot hides the
  // entry from the disk listing.  Both are invalid ids.
  return id[0] != '.';
}

std::vector<props::Property> StoredDeployment::ExtraProperties() const {
  if (properties_json.empty()) return {};
  return props::LoadPropertiesJson(properties_json);
}

// ---- serialization -----------------------------------------------------------

json::Value StoredDeploymentToJson(const StoredDeployment& deployment) {
  json::Object doc;
  doc["schema"] = kDeploymentSchema;
  doc["id"] = deployment.id;
  doc["revision"] = static_cast<std::int64_t>(deployment.revision);
  doc["deployment"] = config::DeploymentToJson(deployment.deployment);
  if (!deployment.app_sources.empty()) {
    json::Object sources;
    for (const auto& [name, source] : deployment.app_sources) {
      sources[name] = source;
    }
    doc["appSources"] = std::move(sources);
  }
  if (!deployment.properties_json.empty()) {
    doc["properties"] = json::Parse(deployment.properties_json);
  }
  return json::Value(std::move(doc));
}

StoredDeployment StoredDeploymentFromJson(const json::Value& doc) {
  if (doc.GetString("schema") != kDeploymentSchema) {
    throw Error("deployment entry: wrong schema '" + doc.GetString("schema") +
                "' (want '" + std::string(kDeploymentSchema) + "')");
  }
  StoredDeployment out;
  out.id = doc.GetString("id");
  out.revision = doc.GetInteger<std::uint64_t>("revision");
  out.deployment = config::ParseDeployment(doc.At("deployment"));
  if (doc.Has("appSources")) {
    for (const auto& [name, source] : doc.At("appSources").AsObject()) {
      out.app_sources[name] = source.AsString();
    }
  }
  if (doc.Has("properties")) {
    out.properties_json = doc.At("properties").Dump(0);
  }
  return out;
}

json::Value CheckRecordToJson(const CheckRecord& record) {
  json::Object doc;
  doc["schema"] = kRecordSchema;
  doc["revision"] = static_cast<std::int64_t>(record.revision);
  doc["verdict"] = record.verdict;
  doc["exit_code"] = record.exit_code;
  doc["check_seconds"] = record.check_seconds;
  doc["groups_total"] = static_cast<std::int64_t>(record.groups_total);
  doc["groups_recomputed"] =
      static_cast<std::int64_t>(record.groups_recomputed);
  return json::Value(std::move(doc));
}

CheckRecord CheckRecordFromJson(const json::Value& doc) {
  if (doc.GetString("schema") != kRecordSchema) {
    throw Error("check record: wrong schema '" + doc.GetString("schema") +
                "' (want '" + std::string(kRecordSchema) + "')");
  }
  CheckRecord out;
  out.revision = doc.GetInteger<std::uint64_t>("revision");
  out.verdict = doc.GetString("verdict");
  out.exit_code = doc.GetInteger<int>("exit_code");
  out.check_seconds = doc.GetNumber("check_seconds");
  out.groups_total = doc.GetInteger<std::uint64_t>("groups_total");
  out.groups_recomputed = doc.GetInteger<std::uint64_t>("groups_recomputed");
  return out;
}

// ---- DeploymentStore ---------------------------------------------------------

DeploymentStore::DeploymentStore(StoreConfig config)
    : config_(std::move(config)) {
  if (!config_.dir.empty()) fs::create_directories(config_.dir);
}

std::string DeploymentStore::DirFor(const std::string& id) const {
  return config_.dir + "/" + id;
}

DeploymentStore::Entry* DeploymentStore::FindLocked(const std::string& id) {
  auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  TouchLocked(it->second);
  return &*it->second;
}

DeploymentStore::Entry* DeploymentStore::LoadLocked(const std::string& id) {
  if (config_.dir.empty()) return nullptr;
  const std::string path = DirFor(id) + "/deployment.json";
  const std::string text = util::ReadFileOrEmpty(path);
  if (text.empty()) return nullptr;
  Entry entry;
  entry.id = id;
  try {
    entry.deployment = StoredDeploymentFromJson(json::Parse(text));
  } catch (const Error& e) {
    // Corrupt, truncated, or schema-mismatched: not_found, never an
    // error — the next PUT overwrites it with a good entry.
    if (auto* t = telemetry::Active()) ++t->registry.corrupt_entries;
    util::LogDebug("registry", "unreadable deployment treated as not_found",
                   {{"path", path}, {"reason", e.what()}});
    return nullptr;
  }
  lru_.push_front(std::move(entry));
  index_[id] = lru_.begin();
  EvictLocked();
  return &lru_.front();
}

void DeploymentStore::TouchLocked(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void DeploymentStore::EvictLocked() {
  // Memory-only stores never evict: there is no disk copy to reload.
  if (config_.dir.empty()) return;
  while (lru_.size() > std::max<std::size_t>(config_.memory_entries, 1)) {
    index_.erase(lru_.back().id);
    lru_.pop_back();
    if (auto* t = telemetry::Active()) ++t->registry.evictions;
  }
}

std::uint64_t DeploymentStore::Put(StoredDeployment deployment) {
  if (!IsValidDeploymentId(deployment.id)) {
    throw Error("invalid deployment id '" + deployment.id +
                "' (want [A-Za-z0-9._-]{1,64}, no leading dot)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = FindLocked(deployment.id);
  if (entry == nullptr) entry = LoadLocked(deployment.id);
  deployment.revision =
      (entry != nullptr ? entry->deployment.revision : 0) + 1;
  if (!config_.dir.empty()) {
    fs::create_directories(DirFor(deployment.id));
    util::AtomicWriteFile(DirFor(deployment.id) + "/deployment.json",
                          StoredDeploymentToJson(deployment).Dump(0) + "\n");
  }
  const std::uint64_t revision = deployment.revision;
  if (entry != nullptr) {
    // The prior check record stays: the status list shows it as the
    // verdict of an older revision until the next check.
    entry->deployment = std::move(deployment);
  } else {
    Entry fresh;
    fresh.id = deployment.id;
    fresh.deployment = std::move(deployment);
    fresh.record_loaded = config_.dir.empty();  // nothing on disk to read
    lru_.push_front(std::move(fresh));
    index_[lru_.front().id] = lru_.begin();
    EvictLocked();
  }
  if (auto* t = telemetry::Active()) ++t->registry.deployments_put;
  return revision;
}

std::optional<StoredDeployment> DeploymentStore::Get(const std::string& id) {
  if (!IsValidDeploymentId(id)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = FindLocked(id);
  if (entry == nullptr) entry = LoadLocked(id);
  if (entry == nullptr) return std::nullopt;
  return entry->deployment;
}

bool DeploymentStore::Remove(const std::string& id) {
  if (!IsValidDeploymentId(id)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  bool existed = false;
  if (auto it = index_.find(id); it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
    existed = true;
  }
  if (!config_.dir.empty()) {
    std::error_code ec;
    existed = fs::remove_all(DirFor(id), ec) > 0 || existed;
  }
  if (existed) {
    if (auto* t = telemetry::Active()) ++t->registry.deployments_deleted;
  }
  return existed;
}

std::vector<std::string> DeploymentStore::List() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::string> ids;
  for (const Entry& entry : lru_) ids.insert(entry.id);
  if (!config_.dir.empty()) {
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(config_.dir, ec)) {
      if (!entry.is_directory()) continue;
      const std::string id = entry.path().filename().string();
      if (IsValidDeploymentId(id)) ids.insert(id);
    }
  }
  return {ids.begin(), ids.end()};
}

std::optional<CheckRecord> DeploymentStore::GetRecord(const std::string& id) {
  if (!IsValidDeploymentId(id)) return std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = FindLocked(id);
  if (entry == nullptr) entry = LoadLocked(id);
  if (entry == nullptr) return std::nullopt;
  if (!entry->record_loaded) {
    entry->record_loaded = true;
    const std::string path = DirFor(id) + "/record.json";
    const std::string text = util::ReadFileOrEmpty(path);
    if (!text.empty()) {
      try {
        entry->record = CheckRecordFromJson(json::Parse(text));
      } catch (const Error& e) {
        // A corrupt record only costs the status row until the next
        // check writes a good one.
        if (auto* t = telemetry::Active()) ++t->registry.corrupt_entries;
        util::LogDebug("registry", "unreadable check record ignored",
                       {{"path", path}, {"reason", e.what()}});
      }
    }
  }
  return entry->record;
}

void DeploymentStore::PutRecord(const std::string& id,
                                const CheckRecord& record) {
  if (!IsValidDeploymentId(id)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = FindLocked(id);
  if (entry == nullptr) entry = LoadLocked(id);
  if (entry == nullptr) return;  // deleted mid-check: drop the record
  entry->record = record;
  entry->record_loaded = true;
  if (!config_.dir.empty()) {
    fs::create_directories(DirFor(id));
    util::AtomicWriteFile(DirFor(id) + "/record.json",
                          CheckRecordToJson(record).Dump(0) + "\n");
  }
}

}  // namespace iotsan::registry
