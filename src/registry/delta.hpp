// Delta re-verification (docs/fleet.md): re-run only the related-set
// groups a revision actually changed, reuse the prior revision's
// retained results for the rest, and produce a response byte-identical
// to a cold full check of the new config.
//
// Correctness rests on the same content-addressing the result cache
// uses: a group's result is a pure function of its GroupKey (config
// slice, source fingerprints, property set, check/model options), so a
// retained result whose key matches the recomputed key is exactly what
// a cold run would produce — the test suite asserts the byte-identity
// rather than assuming it.
#pragma once

#include "core/service.hpp"
#include "registry/deployment_store.hpp"

namespace iotsan::registry {

struct RegistryCheckOutcome {
  /// Same shape RunCheck returns; `text` and `report` are
  /// byte-identical to a cold full check of the same config (see
  /// the determinism note on RunRegistryCheck).
  core::CheckResponse response;
  /// Retained results for the next delta (revision/check_seconds are
  /// filled by the caller, which owns the wall clock and the token).
  CheckRecord record;
  std::uint64_t groups_total = 0;
  std::uint64_t groups_reused = 0;
  std::uint64_t groups_recomputed = 0;
};

/// Plans the request's related-set groups, classifies each against
/// `prior`'s fingerprint map (unchanged = key match -> reuse; dirty /
/// added = no match -> re-run via Sanitizer::CheckGroups; removed =
/// prior keys with no current group -> dropped), merges in group order,
/// and renders through the shared service renderer.
///
/// Determinism note: unlike Sanitizer::Check, the report's `seconds`
/// is always the sum of per-group seconds — even when groups fan out
/// over a pool — so registry reports are reproducible and a delta
/// response can be byte-compared against a cold full check.  Wall-clock
/// latency lives in the registry.*_check_duration_us histograms
/// instead.  `prior` may be nullptr (a full check).
RegistryCheckOutcome RunRegistryCheck(const core::CheckRequest& request,
                                      const core::ServiceEnv& env,
                                      const CheckRecord* prior);

}  // namespace iotsan::registry
