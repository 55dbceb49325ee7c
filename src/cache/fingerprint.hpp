// Content-addressed cache keys for per-group verification results.
//
// A related-set group's verification outcome is a pure function of
//   * the analyzed apps' sources (what the Translator would produce),
//   * the configuration slice the group touches — the sub-deployment the
//     sanitizer builds for the group: all devices (role-bound properties
//     see every device), the group's app instances with their input
//     bindings, the location modes, contact phone, and network policy,
//   * the active safety-property set (built-ins + user-defined),
//   * the CheckOptions that influence the result (NOT `jobs`/`pool`/
//     `progress`: a search on one lane prints the same at any
//     --jobs), plus the lane count of a search that spreads its root
//     branches over several lanes, whose counter-examples may differ,
//   * the model-generation options, and
//   * the iotsan version (a new build may change semantics).
//
// MakeGroupKey canonicalizes all of that into a human-readable key
// document (compact JSON, std::map-ordered keys) and hashes it with the
// util/hash FNV-1a infrastructure.  The 64-bit digest addresses the
// entry (file name, LRU slot); the full document rides along inside the
// entry so a digest collision is detected by text comparison and
// degrades to a miss instead of serving a wrong result.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checker/checker.hpp"
#include "config/deployment.hpp"
#include "model/system_model.hpp"
#include "props/property.hpp"

namespace iotsan::cache {

/// Everything a group's verification result depends on.
struct GroupKeyInputs {
  /// The group's sub-deployment: all devices + only this group's app
  /// instances (the config slice the group touches).
  const config::Deployment* deployment = nullptr;
  /// (app definition name, SmartScript source) per group app instance,
  /// in sub-deployment order.
  std::vector<std::pair<std::string, std::string>> sources;
  /// The full active property set (built-ins + extras), in order.
  const std::vector<props::Property>* properties = nullptr;
  const checker::CheckOptions* check = nullptr;
  /// Lanes the search spreads its root branches over; 1 = one lane,
  /// which the key leaves out.
  int lanes = 1;
  const model::ModelOptions* model = nullptr;
  /// Tool version baked into the key; empty = util/build_info version.
  std::string version;
};

struct GroupKey {
  /// FNV-1a digest of `text` — the content address.
  std::uint64_t digest = 0;
  /// The canonical key document (compact JSON).
  std::string text;

  /// The digest as 16 lowercase hex digits (entry file stem).
  std::string Hex() const;
};

/// Canonical key document for `inputs` (compact JSON dump).  App sources
/// and the property set are folded to FNV fingerprints to keep entries
/// small; the deployment slice is embedded verbatim.
std::string GroupKeyText(const GroupKeyInputs& inputs);

/// Builds the content-addressed key: digest = Fnv1a64(GroupKeyText).
GroupKey MakeGroupKey(const GroupKeyInputs& inputs);

/// FNV fingerprint of the active property set (id, kind, category,
/// description, expression per property, length-delimited).  Exposed for
/// the golden-value tests.
std::uint64_t PropertySetFingerprint(
    const std::vector<props::Property>& properties);

}  // namespace iotsan::cache
