#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

#include "config/deployment.hpp"
#include "core/sanitizer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/http_client.hpp"

namespace iotsan::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// [{id, category, description, expression}] — the shape
/// props::LoadPropertiesJson reads back on the worker.
json::Array PropertiesJson(const std::vector<props::Property>& properties) {
  json::Array out;
  for (const props::Property& p : properties) {
    json::Object entry;
    entry["id"] = p.id;
    entry["category"] = p.category;
    entry["description"] = p.description;
    entry["expression"] = p.expression;
    out.push_back(json::Value(std::move(entry)));
  }
  return out;
}

}  // namespace

// ---- worker list -------------------------------------------------------------

std::vector<WorkerSpec> ParseWorkerList(const std::string& list) {
  std::vector<WorkerSpec> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string::npos) end = list.size();
    std::string entry = list.substr(start, end - start);
    start = end + 1;
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry.erase(entry.begin());
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry.pop_back();
    }
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      throw Error("workers: '" + entry + "' is not host:port");
    }
    WorkerSpec spec;
    spec.host = entry.substr(0, colon);
    const std::string port_text = entry.substr(colon + 1);
    spec.port = 0;
    if (port_text.size() <= 5 &&
        port_text.find_first_not_of("0123456789") == std::string::npos) {
      spec.port = std::stoi(port_text);
    }
    if (spec.port < 1 || spec.port > 65535) {
      throw Error("workers: '" + entry + "' has an invalid port");
    }
    out.push_back(std::move(spec));
  }
  if (out.empty()) throw Error("workers: the worker list is empty");
  return out;
}

// ---- wire format -------------------------------------------------------------

json::Value UnitRequestJson(const core::CheckRequest& request,
                            const WorkUnit& unit) {
  json::Object doc;
  doc["schema"] = "iotsan.request/1";
  doc["deployment"] = config::DeploymentToJson(request.deployment);
  if (!request.extra_sources.empty()) {
    json::Object sources;
    for (const auto& [name, source] : request.extra_sources) {
      sources[name] = source;
    }
    doc["appSources"] = std::move(sources);
  }
  if (!request.extra_properties.empty()) {
    doc["properties"] = PropertiesJson(request.extra_properties);
  }
  core::RequestOptions options = request.options;
  options.group_apps = unit.group_apps;
  if (unit.branch_modulus > 1) {
    options.branch_modulus = unit.branch_modulus;
    options.branch_residue = unit.branch_residue;
  }
  options.bitstate_seed = unit.bitstate_seed;
  // The worker must search exactly as a single node would, so every
  // option that differs from its defaults rides along — except `jobs`:
  // the worker's own pool size does not affect the canonicalized result,
  // so each worker runs at its native width.  The deadline is always
  // explicit, so a worker's own default deadline can never cut a unit
  // short when the coordinator runs unbounded.
  core::RequestOptions omitted;
  omitted.jobs = options.jobs;
  omitted.deadline_seconds = -1;
  doc["options"] = core::OptionsToJson(options, omitted);
  return json::Value(std::move(doc));
}

// ---- planning ----------------------------------------------------------------

std::vector<WorkUnit> PlanUnits(
    const std::vector<std::vector<std::size_t>>& groups,
    const ClusterOptions& options, const core::RequestOptions& request) {
  std::vector<WorkUnit> units;
  const bool lanes = request.bitstate && options.swarm_lanes > 1;
  const bool shards = !lanes && options.branch_split > 1;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (lanes) {
      for (unsigned lane = 0; lane < options.swarm_lanes; ++lane) {
        WorkUnit unit;
        unit.kind = UnitKind::kSwarmLane;
        unit.group_index = g;
        unit.group_apps = groups[g];
        // Lane 0 keeps the historical family, so a 1-lane degenerate
        // plan is byte-identical to a plain bitstate run.
        unit.bitstate_seed = lane == 0 ? 0 : hash::SplitMix64(lane);
        units.push_back(std::move(unit));
      }
    } else if (shards) {
      for (unsigned residue = 0; residue < options.branch_split; ++residue) {
        WorkUnit unit;
        unit.kind = UnitKind::kBranchShard;
        unit.group_index = g;
        unit.group_apps = groups[g];
        unit.branch_modulus = options.branch_split;
        unit.branch_residue = residue;
        units.push_back(std::move(unit));
      }
    } else {
      WorkUnit unit;
      unit.group_index = g;
      unit.group_apps = groups[g];
      units.push_back(std::move(unit));
    }
  }
  return units;
}

checker::CheckResult MergeShardResults(
    UnitKind kind, std::vector<checker::CheckResult> results) {
  if (results.size() == 1) return std::move(results[0]);
  checker::CheckResult merged;
  for (checker::CheckResult& shard : results) {
    checker::Accumulate(merged, shard);
    for (checker::Violation& violation : shard.violations) {
      checker::Violation* existing = nullptr;
      for (checker::Violation& have : merged.violations) {
        if (have.property_id == violation.property_id) {
          existing = &have;
          break;
        }
      }
      if (existing == nullptr) {
        merged.violations.push_back(std::move(violation));
      } else {
        checker::MergeViolationInto(*existing, std::move(violation));
      }
    }
  }
  if (kind == UnitKind::kBranchShard && !merged.depth_histogram.empty()) {
    // Every shard's search accounted the shared initial state once;
    // a single run accounts it exactly once, so drop the duplicates.
    const std::uint64_t extra =
        static_cast<std::uint64_t>(results.size()) - 1;
    merged.states_explored -= std::min(merged.states_explored, extra);
    merged.depth_histogram[0] -=
        std::min(merged.depth_histogram[0], extra);
  }
  checker::CanonicalizeViolations(merged.violations);
  return merged;
}

// ---- coordinator -------------------------------------------------------------

Coordinator::Coordinator(ClusterOptions options)
    : options_(std::move(options)) {
  workers_.reserve(options_.workers.size());
  for (const WorkerSpec& spec : options_.workers) {
    WorkerState state;
    state.spec = spec;
    state.status.endpoint = spec.endpoint();
    workers_.push_back(std::move(state));
  }
}

std::size_t Coordinator::ProbeWorkers() {
  util::HttpClientConfig config;
  config.connect_timeout_ms = options_.connect_timeout_ms;
  config.read_timeout_ms = std::max(options_.connect_timeout_ms, 1000);
  std::size_t healthy = 0;
  for (WorkerState& worker : workers_) {
    bool up = false;
    std::string error;
    try {
      const util::HttpResponse response = util::HttpCall(
          worker.spec.host, worker.spec.port, "GET", "/v1/health", "", {},
          config);
      up = response.status == 200;
      if (!up) error = "health returned " + std::to_string(response.status);
    } catch (const util::HttpError& e) {
      error = e.what();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    worker.status.healthy = up;
    if (!up) worker.status.last_error = error;
    if (up) ++healthy;
    if (auto* t = telemetry::Active()) ++t->cluster.health_probes;
  }
  if (auto* t = telemetry::Active()) {
    t->cluster.workers_healthy.store(healthy, std::memory_order_relaxed);
  }
  return healthy;
}

std::vector<WorkerStatus> Coordinator::WorkerRows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WorkerStatus> out;
  out.reserve(workers_.size());
  for (const WorkerState& worker : workers_) {
    out.push_back(worker.status);
  }
  return out;
}

ClusterOutcome Coordinator::Check(const core::CheckRequest& request,
                                  const core::ServiceEnv& env) {
  if (auto* t = telemetry::Active()) ++t->cluster.checks;

  // The coordinator plans with the same decomposition a single node
  // uses; the report picks up rejections, scale stats, and the related
  // set count here, exactly like Sanitizer::Check would.
  core::Sanitizer sanitizer(request.deployment);
  for (const auto& [name, source] : request.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  core::SanitizerOptions plan_options =
      core::MakeCheckOptions(request.options, env);
  plan_options.extra_properties = request.extra_properties;
  core::SanitizerReport report;
  const std::vector<std::vector<std::size_t>> groups =
      sanitizer.PlanGroups(plan_options, report);

  ClusterOutcome out;
  const std::size_t healthy = ProbeWorkers();
  if (healthy == 0) {
    if (!options_.allow_local_fallback) {
      throw Error("cluster: no reachable workers (probed " +
                  std::to_string(workers_.size()) +
                  ") and local fallback is disabled");
    }
    std::fprintf(stderr,
                 "cluster: WARNING: no reachable workers (probed %zu), "
                 "degrading to local execution\n",
                 workers_.size());
    if (auto* t = telemetry::Active()) ++t->cluster.local_fallback_checks;
    out.response = core::RunCheck(request, env);
    out.degraded_local = true;
    return out;
  }

  std::vector<WorkUnit> units =
      PlanUnits(groups, options_, request.options);
  if (auto* t = telemetry::Active()) {
    t->cluster.units_planned += units.size();
  }
  out.units_total = units.size();

  const Clock::time_point wall_start = Clock::now();

  struct UnitSlot {
    checker::CheckResult result;
    bool done = false;
    int dispatches = 0;
  };
  std::vector<UnitSlot> slots(units.size());

  // Shared dispatch state: a queue of unit indices, drained by one
  // thread per healthy worker.  A worker that exhausts its transport
  // retries is declared dead; its unit goes back on the queue for a
  // survivor (units_redispatched), and its thread exits.  Requests the
  // workers reject as malformed (4xx) poison the whole check — they
  // would fail identically everywhere.
  std::mutex work_mutex;
  std::condition_variable work_cv;
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < units.size(); ++i) queue.push_back(i);
  std::size_t done_count = 0;
  std::size_t inflight = 0;
  std::size_t redispatched = 0;
  std::size_t live_workers = 0;
  std::string fatal_error;

  // Group-completion progress for /v1/status and SSE: emitted once per
  // group whose units have all finished, with monotonically advancing
  // groups_done.
  std::vector<std::size_t> group_pending(groups.size(), 0);
  for (const WorkUnit& unit : units) ++group_pending[unit.group_index];
  std::uint64_t groups_done = 0;
  std::uint64_t progress_states = 0;

  auto note_unit_done = [&](std::size_t index,
                            checker::CheckResult result) {
    // Caller holds work_mutex.
    slots[index].result = std::move(result);
    slots[index].done = true;
    ++done_count;
    if (auto* t = telemetry::Active()) ++t->cluster.units_completed;
    const std::size_t g = units[index].group_index;
    progress_states += slots[index].result.states_explored;
    if (--group_pending[g] == 0 && env.on_group_progress) {
      telemetry::GroupProgress progress;
      progress.groups_total = groups.size();
      progress.groups_done = ++groups_done;
      progress.states_explored = progress_states;
      progress.store_memory_bytes = slots[index].result.store_memory_bytes;
      progress.seconds = slots[index].result.seconds;
      env.on_group_progress(progress);
    }
  };

  auto worker_main = [&](std::size_t worker_index) {
    WorkerState& worker = workers_[worker_index];
    util::HttpClientConfig config;
    config.connect_timeout_ms = options_.connect_timeout_ms;
    config.read_timeout_ms = static_cast<int>(
        std::max(options_.unit_deadline_seconds, 1.0) * 1000.0);
    util::RetryPolicy policy;
    policy.max_attempts = options_.max_attempts;
    policy.base_delay_ms = options_.backoff_base_ms;
    policy.max_delay_ms = options_.backoff_max_ms;
    policy.jitter_seed =
        hash::SplitMix64(options_.jitter_seed ^ (worker_index + 1));

    for (;;) {
      std::size_t index;
      {
        std::unique_lock<std::mutex> lock(work_mutex);
        work_cv.wait(lock, [&] {
          return !queue.empty() || done_count == units.size() ||
                 !fatal_error.empty() ||
                 (queue.empty() && inflight == 0);
        });
        if (done_count == units.size() || !fatal_error.empty()) return;
        if (queue.empty()) return;  // leftovers for local fallback
        if (env.interrupt != nullptr &&
            env.interrupt->load(std::memory_order_relaxed)) {
          return;  // shutdown: stop pulling; leftovers run locally
        }
        index = queue.front();
        queue.pop_front();
        ++inflight;
        ++slots[index].dispatches;
        if (slots[index].dispatches > 1) {
          ++redispatched;
          if (auto* t = telemetry::Active()) {
            ++t->cluster.units_redispatched;
          }
        }
      }

      const std::string body =
          UnitRequestJson(request, units[index]).Dump(0);
      const Clock::time_point dispatch_start = Clock::now();
      bool ok = false;
      std::string error;
      bool request_fault = false;  // 4xx: retrying elsewhere is pointless
      try {
        if (auto* t = telemetry::Active()) ++t->cluster.units_dispatched;
        const util::HttpResponse response = util::HttpCallWithRetry(
            policy,
            [&] {
              return util::HttpCall(worker.spec.host, worker.spec.port,
                                    "POST", "/v1/check", body, {}, config);
            },
            [&](int, int, const std::string&) {
              std::lock_guard<std::mutex> lock(mutex_);
              ++worker.status.retries;
              if (auto* t = telemetry::Active()) ++t->cluster.retries;
            });
        if (response.status == 200) {
          const json::Value doc = json::Parse(response.body);
          checker::CheckResult result =
              checker::CheckResultFromJson(doc.At("unit"));
          const double latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        dispatch_start)
                  .count();
          if (auto* t = telemetry::Active()) {
            t->cluster_hist.dispatch_latency_us.Record(
                static_cast<std::uint64_t>(latency_ms * 1000.0));
          }
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ++worker.status.units_done;
            worker.status.last_latency_ms = latency_ms;
          }
          std::lock_guard<std::mutex> lock(work_mutex);
          note_unit_done(index, std::move(result));
          ok = true;
        } else if (response.status >= 400 && response.status < 500) {
          error = "worker rejected unit: HTTP " +
                  std::to_string(response.status) + " " + response.body;
          request_fault = true;
        } else {
          error = "worker failed unit: HTTP " +
                  std::to_string(response.status);
        }
      } catch (const Error& e) {
        error = e.what();
      }

      if (!ok) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          worker.status.healthy = false;
          ++worker.status.units_failed;
          worker.status.last_error = error;
        }
        if (auto* t = telemetry::Active()) ++t->cluster.worker_failures;
        std::lock_guard<std::mutex> lock(work_mutex);
        --inflight;
        if (request_fault) {
          fatal_error = error;
        } else {
          queue.push_front(index);  // a survivor picks it up
        }
        --live_workers;
        work_cv.notify_all();
        return;  // this worker is done for this check
      }
      std::lock_guard<std::mutex> lock(work_mutex);
      --inflight;
      work_cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(work_mutex);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].status.healthy) continue;
      ++live_workers;
      threads.emplace_back(worker_main, w);
    }
  }
  for (std::thread& thread : threads) thread.join();

  if (!fatal_error.empty()) throw Error("cluster: " + fatal_error);

  // Units left behind by dead workers (or an empty fleet mid-check):
  // run them here so no work is ever lost.
  std::size_t local_units = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (slots[i].done) continue;
    if (!options_.allow_local_fallback) {
      throw Error("cluster: every worker died and local fallback is "
                  "disabled (" +
                  std::to_string(units.size() - done_count) +
                  " units stranded)");
    }
    if (local_units++ == 0) {
      std::fprintf(stderr,
                   "cluster: WARNING: running %zu stranded unit(s) "
                   "locally after worker failures\n",
                   units.size() - done_count);
    }
    core::CheckRequest unit_request = request;
    unit_request.options.group_apps = units[i].group_apps;
    unit_request.options.branch_modulus = units[i].branch_modulus;
    unit_request.options.branch_residue = units[i].branch_residue;
    unit_request.options.bitstate_seed = units[i].bitstate_seed;
    checker::CheckResult result = core::RunCheckUnit(unit_request, env);
    if (auto* t = telemetry::Active()) ++t->cluster.units_local;
    std::lock_guard<std::mutex> lock(work_mutex);
    note_unit_done(i, std::move(result));
  }
  out.units_local = local_units;
  out.units_remote = units.size() - local_units;
  out.units_redispatched = redispatched;

  // Merge in plan order — byte-identical to the single-node loop.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<checker::CheckResult> parts;
    UnitKind kind = UnitKind::kGroup;
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (units[i].group_index != g) continue;
      kind = units[i].kind;
      parts.push_back(std::move(slots[i].result));
    }
    if (parts.empty()) continue;
    core::MergeGroupResult(report, MergeShardResults(kind,
                                                     std::move(parts)));
  }
  // Per-unit seconds overlap across workers; report wall clock, like
  // the in-process parallel path.
  report.seconds = std::chrono::duration<double>(Clock::now() - wall_start)
                       .count();
  core::FinalizeReport(report);

  out.response = core::MakeCheckResponse(request.deployment, std::move(report));
  return out;
}

}  // namespace iotsan::cluster
