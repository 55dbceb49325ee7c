// Fleet facade: the thread-safe orchestration layer the REST surface
// and the tests drive — deployment lifecycle (put/get/remove/list),
// the If-Match revision guard, and checks of the stored revision
// through the one check pipeline, whose result cache is what a delta
// reuses (docs/fleet.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "registry/deployment_store.hpp"
#include "util/error.hpp"

namespace iotsan::registry {

/// Thrown by Fleet::Check when the caller's If-Match revision is stale;
/// the HTTP layer maps it to 409 with the current revision attached.
class RevisionConflict : public Error {
 public:
  RevisionConflict(std::uint64_t expected, std::uint64_t current)
      : Error("revision conflict: expected " + std::to_string(expected) +
              ", current is " + std::to_string(current)),
        expected_revision(expected),
        current_revision(current) {}
  std::uint64_t expected_revision;
  std::uint64_t current_revision;
};

class Fleet {
 public:
  explicit Fleet(StoreConfig config) : store_(std::move(config)) {}

  /// Upserts and returns the new revision (the ETag token).  Throws
  /// iotsan::Error on an invalid id.
  std::uint64_t Put(StoredDeployment deployment) {
    return store_.Put(std::move(deployment));
  }

  std::optional<StoredDeployment> Get(const std::string& id) {
    return store_.Get(id);
  }

  /// Deletes the deployment and what `env.cache` holds for it.
  bool Remove(const std::string& id, const core::ServiceEnv& env);

  /// One row of GET /v1/deployments.
  struct Status {
    std::string id;
    std::uint64_t revision = 0;
    /// Revision the last check verified (0 = never checked; less than
    /// `revision` = the last verdict is stale).
    std::uint64_t checked_revision = 0;
    std::string verdict = "unchecked";
    std::uint64_t groups_total = 0;
    std::uint64_t groups_recomputed = 0;
    double check_seconds = 0;
  };
  std::vector<Status> List();

  struct CheckOutcome {
    core::CheckResponse response;
    std::uint64_t revision = 0;
    /// Plan positions, and how many came from the result cache or were
    /// searched (SanitizerReport::groups_planned / groups_searched).
    std::uint64_t groups_total = 0;
    std::uint64_t groups_reused = 0;
    std::uint64_t groups_recomputed = 0;
    /// Wall-clock latency of this check (the histogram's sample; the
    /// response's `seconds` stays the deterministic per-group sum).
    double check_seconds = 0;
  };
  /// Checks the deployment's current revision through core::RunCheck:
  /// related sets `env.cache` holds are hits, the rest are searched as
  /// a cold check searches them, so the response equals a cold check of
  /// the same config.  The cache then holds this check's sets under the
  /// deployment id until its next check or removal.  nullopt when `id`
  /// is unknown; throws RevisionConflict when `if_match` names a stale
  /// revision.
  std::optional<CheckOutcome> Check(const std::string& id,
                                    std::optional<std::uint64_t> if_match,
                                    const core::RequestOptions& options,
                                    const core::ServiceEnv& env);

  DeploymentStore& store() { return store_; }

 private:
  DeploymentStore store_;
};

}  // namespace iotsan::registry
