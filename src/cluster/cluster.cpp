#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
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

json::Value BatchRequestJson(const core::CheckRequest& request,
                             const std::vector<core::CheckUnit>& units) {
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
  // The worker must search exactly as a single node would, so every
  // option that differs from its defaults rides along — except `jobs`:
  // the worker's own pool size does not affect the canonicalized result,
  // so each worker runs at its native width.  The deadline is always
  // explicit, so a worker's own default deadline can never cut a unit
  // short when the coordinator runs unbounded.
  core::RequestOptions omitted;
  omitted.jobs = request.options.jobs;
  omitted.deadline_seconds = -1;
  doc["options"] = core::OptionsToJson(request.options, omitted);
  json::Array list;
  for (const core::CheckUnit& unit : units) {
    list.push_back(core::CheckUnitToJson(unit));
  }
  doc["units"] = std::move(list);
  return json::Value(std::move(doc));
}

std::vector<checker::CheckResult> BatchResultsFromJson(
    const json::Value& reply, std::size_t units) {
  const json::Array& list = reply.At("units").AsArray();
  if (list.size() != units) {
    throw Error("worker replied with " + std::to_string(list.size()) +
                " results for " + std::to_string(units) + " units");
  }
  std::vector<checker::CheckResult> results;
  for (const json::Value& result : list) {
    results.push_back(checker::CheckResultFromJson(result));
  }
  return results;
}

// ---- planning ----------------------------------------------------------------

std::vector<WorkUnit> PlanUnits(
    const std::vector<std::vector<std::size_t>>& groups) {
  std::vector<WorkUnit> units;
  const std::vector<std::size_t> first = core::FirstOccurrences(groups);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (first[g] != g) continue;
    WorkUnit unit;
    unit.group_apps = groups[g];
    unit.group_index = g;
    units.push_back(std::move(unit));
  }
  return units;
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
  // set count here, exactly like Sanitizer::Check would.  The analyses
  // serve the render step.
  core::Sanitizer sanitizer(request.deployment);
  for (const auto& [name, source] : request.extra_sources) {
    sanitizer.AddAppSource(name, source);
  }
  core::SanitizerOptions plan_options =
      core::MakeCheckOptions(request.options, env);
  plan_options.extra_properties = request.extra_properties;
  core::SanitizerReport report;
  core::AppAnalyses analyses;
  const std::vector<std::vector<std::size_t>> groups =
      sanitizer.PlanGroups(plan_options, report, &analyses);

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

  const std::vector<WorkUnit> units = PlanUnits(groups);
  if (auto* t = telemetry::Active()) {
    t->cluster.units_planned += units.size();
  }
  out.units_total = units.size();

  struct UnitSlot {
    checker::CheckResult result;
    bool done = false;
    int dispatches = 0;
  };
  std::vector<UnitSlot> slots(units.size());

  // Shared dispatch state: a queue of unit indices, drained in batches
  // by one thread per healthy worker.  A worker that exhausts its
  // transport retries (or answers with a malformed reply) is declared
  // dead; its batch goes back to the head of the queue for a survivor
  // (units_redispatched), and its thread exits.  Requests the workers
  // reject as malformed (4xx) poison the whole check — they would fail
  // identically everywhere.
  std::mutex work_mutex;
  std::condition_variable work_cv;
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < units.size(); ++i) queue.push_back(i);
  std::size_t done_count = 0;
  std::size_t inflight = 0;  // requests
  std::size_t redispatched = 0;
  std::size_t live_workers = 0;
  std::string fatal_error;

  // The check's progress: each unit counts once, when its result
  // arrives.
  std::optional<telemetry::ProgressCounter> progress;
  if (env.on_progress) {
    progress.emplace(units.size(), env.progress_every, env.on_progress);
  }

  auto note_unit_done = [&](std::size_t index,
                            checker::CheckResult result) {
    // Caller holds work_mutex.
    slots[index].result = std::move(result);
    slots[index].done = true;
    ++done_count;
    if (auto* t = telemetry::Active()) ++t->cluster.units_completed;
    if (progress) {
      const checker::CheckResult& done = slots[index].result;
      progress->FinishSet(done.states_explored, done.store_memory_bytes,
                          done.seconds);
    }
  };

  auto worker_main = [&](std::size_t worker_index) {
    WorkerState& worker = workers_[worker_index];
    util::HttpClientConfig config;
    config.connect_timeout_ms = options_.connect_timeout_ms;
    util::RetryPolicy policy;
    policy.max_attempts = options_.max_attempts;
    policy.base_delay_ms = options_.backoff_base_ms;
    policy.max_delay_ms = options_.backoff_max_ms;
    policy.jitter_seed =
        hash::SplitMix64(options_.jitter_seed ^ (worker_index + 1));

    for (;;) {
      std::vector<std::size_t> batch;
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
        // Half the queue's fair share per request: big batches while the
        // queue is long, one unit at a time near its end, so no worker
        // sits on the last long batch while the others idle.
        const std::size_t share = 2 * live_workers;
        const std::size_t take = (queue.size() + share - 1) / share;
        while (batch.size() < std::max<std::size_t>(take, 1) &&
               !queue.empty()) {
          const std::size_t index = queue.front();
          queue.pop_front();
          if (++slots[index].dispatches > 1) {
            ++redispatched;
            if (auto* t = telemetry::Active()) {
              ++t->cluster.units_redispatched;
            }
          }
          batch.push_back(index);
        }
        ++inflight;
      }

      // The worker answers once the whole batch is done, so each of its
      // units adds a unit's deadline to the request's.
      config.read_timeout_ms = static_cast<int>(std::min(
          std::max(options_.unit_deadline_seconds, 1.0) * 1000.0 *
              static_cast<double>(batch.size()),
          static_cast<double>(std::numeric_limits<int>::max())));
      std::vector<core::CheckUnit> batch_units;
      for (std::size_t index : batch) batch_units.push_back(units[index]);
      const std::string body = BatchRequestJson(request, batch_units).Dump(0);
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
          std::vector<checker::CheckResult> results =
              BatchResultsFromJson(json::Parse(response.body), batch.size());
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
            worker.status.units_done += batch.size();
            worker.status.last_latency_ms = latency_ms;
          }
          std::lock_guard<std::mutex> lock(work_mutex);
          for (std::size_t k = 0; k < batch.size(); ++k) {
            note_unit_done(batch[k], std::move(results[k]));
          }
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
          worker.status.units_failed += batch.size();
          worker.status.last_error = error;
        }
        if (auto* t = telemetry::Active()) ++t->cluster.worker_failures;
        std::lock_guard<std::mutex> lock(work_mutex);
        --inflight;
        if (request_fault) {
          fatal_error = error;
        } else {
          // A survivor picks the batch up, in plan order.
          queue.insert(queue.begin(), batch.begin(), batch.end());
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
  // run them here as one batch so no work is ever lost.
  std::vector<std::size_t> stranded_index;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!slots[i].done) stranded_index.push_back(i);
  }
  if (!stranded_index.empty()) {
    if (!options_.allow_local_fallback) {
      throw Error("cluster: every worker died and local fallback is "
                  "disabled (" +
                  std::to_string(stranded_index.size()) +
                  " units stranded)");
    }
    std::fprintf(stderr,
                 "cluster: WARNING: running %zu stranded unit(s) "
                 "locally after worker failures\n",
                 stranded_index.size());
    core::CheckRequest stranded = request;
    for (std::size_t i : stranded_index) stranded.units.push_back(units[i]);
    // Their results report below, like a worker's.
    core::ServiceEnv local_env = env;
    local_env.on_progress = nullptr;
    std::vector<checker::CheckResult> results =
        core::RunCheckUnits(stranded, local_env);
    if (auto* t = telemetry::Active()) {
      t->cluster.units_local += stranded_index.size();
    }
    std::lock_guard<std::mutex> lock(work_mutex);
    for (std::size_t k = 0; k < stranded_index.size(); ++k) {
      note_unit_done(stranded_index[k], std::move(results[k]));
    }
  }
  out.units_local = stranded_index.size();
  out.units_remote = units.size() - stranded_index.size();
  out.units_redispatched = redispatched;

  // One result per plan position: a unit's at its set's first position,
  // and a repeated set's copy of its first's.
  std::vector<checker::CheckResult> results(groups.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    results[units[i].group_index] = std::move(slots[i].result);
  }
  const std::vector<std::size_t> first = core::FirstOccurrences(groups);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (first[g] != g) results[g] = results[first[g]];
  }
  // Render and merge in plan order — byte-identical to the single-node
  // loop, `seconds` (the sum of the units' search seconds) included.
  sanitizer.RenderReported(groups, plan_options, analyses, results);
  for (checker::CheckResult& result : results) {
    core::MergeGroupResult(report, std::move(result));
  }
  core::FinalizeReport(report);

  out.response = core::MakeCheckResponse(request.deployment, std::move(report));
  return out;
}

}  // namespace iotsan::cluster
