#include "cache/fingerprint.hpp"

#include <cstdio>

#include "util/build_info.hpp"
#include "util/hash.hpp"

namespace iotsan::cache {

namespace {

const char* SchedulingName(model::Scheduling scheduling) {
  return scheduling == model::Scheduling::kConcurrent ? "concurrent"
                                                      : "sequential";
}

const char* StoreName(checker::StoreKind store) {
  return store == checker::StoreKind::kBitstate ? "bitstate" : "exhaustive";
}

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::string GroupKey::Hex() const { return cache::Hex(digest); }

std::uint64_t PropertySetFingerprint(
    const std::vector<props::Property>& properties) {
  hash::Fnv1a64Stream stream;
  stream.Mix(static_cast<std::uint64_t>(properties.size()));
  for (const props::Property& p : properties) {
    stream.Mix(p.id);
    stream.Mix(std::string(checker::PropertyKindName(p.kind)));
    stream.Mix(p.category);
    stream.Mix(p.description);
    stream.Mix(p.expression);
  }
  return stream.digest();
}

std::string GroupKeyText(const GroupKeyInputs& inputs) {
  json::Object doc;
  doc["schema"] = "iotsan.cache/1";
  doc["version"] = inputs.version.empty()
                       ? build::GetBuildInfo().version
                       : inputs.version;
  // The config slice, verbatim: DeploymentToJson is canonical
  // (std::map-ordered keys), so identical slices dump identically.
  doc["deployment"] = config::DeploymentToJson(*inputs.deployment);
  // App sources fold to length+FNV fingerprints — the Translator's
  // input is the source text, so any source edit changes the key.
  json::Array sources;
  for (const auto& [app, source] : inputs.sources) {
    json::Object entry;
    entry["app"] = app;
    entry["bytes"] = static_cast<std::int64_t>(source.size());
    entry["fnv"] = Hex(hash::Fnv1a64(source));
    sources.push_back(std::move(entry));
  }
  doc["sources"] = std::move(sources);
  json::Object properties;
  properties["count"] =
      static_cast<std::int64_t>(inputs.properties->size());
  properties["fnv"] = Hex(PropertySetFingerprint(*inputs.properties));
  doc["properties"] = std::move(properties);
  // CheckOptions that influence the result.  `jobs`, `pool`, and the
  // progress counter are deliberately absent: a search on one lane is
  // the same at any --jobs, so its warm runs hit regardless of it.
  const checker::CheckOptions& check = *inputs.check;
  json::Object check_obj;
  check_obj["max_events"] = check.max_events;
  check_obj["scheduling"] = SchedulingName(check.scheduling);
  check_obj["model_failures"] = check.model_failures;
  check_obj["store"] = StoreName(check.store);
  check_obj["bitstate_bits"] = static_cast<std::int64_t>(
      check.store == checker::StoreKind::kBitstate ? check.bitstate_bits : 0);
  check_obj["include_depth_in_state"] = check.include_depth_in_state;
  check_obj["stop_at_first_violation"] = check.stop_at_first_violation;
  check_obj["max_states"] = static_cast<std::int64_t>(check.max_states);
  check_obj["time_budget_seconds"] = check.time_budget_seconds;
  check_obj["reverify_bitstate"] = check.reverify_bitstate;
  // Options added after the key format froze key the cache only when
  // active, so historical keys stay stable.  POR changes transitions and
  // the por.* counters, COLLAPSE the store footprint, and a search that
  // spreads its root branches over several lanes may find other
  // counter-examples than a one-lane search.
  if (check.por) check_obj["por"] = true;
  if (check.state_compression) check_obj["state_compression"] = true;
  if (inputs.lanes > 1) check_obj["lanes"] = inputs.lanes;
  doc["check"] = std::move(check_obj);
  const model::ModelOptions& model = *inputs.model;
  json::Object model_obj;
  model_obj["all_sensor_events"] = model.all_sensor_events;
  model_obj["user_mode_events"] = model.user_mode_events;
  model_obj["dynamic_discovery"] = model.dynamic_discovery;
  doc["model"] = std::move(model_obj);
  return json::Value(std::move(doc)).Dump(0);
}

GroupKey MakeGroupKey(const GroupKeyInputs& inputs) {
  GroupKey key;
  key.text = GroupKeyText(inputs);
  key.digest = hash::Fnv1a64(key.text);
  return key;
}

}  // namespace iotsan::cache
