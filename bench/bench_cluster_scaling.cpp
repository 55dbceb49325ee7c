// Cluster scaling: one coordinator over 1..N local iotsan workers.
//
// Measures the cluster coordinator (src/cluster) on the Table 5
// violating-pair corpus scaled to many independent related sets, one
// work unit each: wall time, states/s, speedup vs a 1-worker cluster,
// and the dispatch overhead a 1-worker cluster pays over a plain
// in-process run (HTTP round trips + JSON round trips + merge).  Every
// configuration's verdicts must match the single-node report — the
// determinism claim — and, on machines with at least 2 hardware
// threads, the 2-worker configuration must reach a 1.6x speedup over 1
// worker or the bench fails (the acceptance gate for the subsystem's
// reason to exist).
//
//   BENCH_STATS {"bench":"cluster_scaling","label":"single-node",...}
//   BENCH_STATS {"bench":"cluster_scaling","label":"workers=2",
//                "speedup_vs_1_worker":1.87,...}
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "cluster/cluster.hpp"
#include "config/deployment.hpp"
#include "core/service.hpp"
#include "server/server.hpp"
#include "util/json.hpp"

namespace iotsan {
namespace {

/// `pairs` independent instances of the paper's §8 violating pair
/// (presence sensor + smart lock + Auto Mode Change + Unlock Door):
/// 2 related-set groups per pair, each a meaty exhaustive search, no
/// cross-group edges — the embarrassingly parallel shape the
/// coordinator spreads over its workers.
config::Deployment Home(int pairs) {
  json::Array devices;
  json::Array apps;
  for (int i = 0; i < pairs; ++i) {
    json::Object presence;
    presence["id"] = "presence" + std::to_string(i);
    presence["type"] = "presenceSensor";
    presence["roles"] = json::Array{json::Value("presence")};
    devices.push_back(json::Value(std::move(presence)));
    json::Object lock;
    lock["id"] = "lock" + std::to_string(i);
    lock["type"] = "smartLock";
    lock["roles"] = json::Array{json::Value("mainDoorLock")};
    devices.push_back(json::Value(std::move(lock)));
    json::Object mode_app;
    mode_app["app"] = "Auto Mode Change";
    json::Object mode_inputs;
    mode_inputs["people"] =
        json::Array{json::Value("presence" + std::to_string(i))};
    mode_inputs["homeMode"] = "Home";
    mode_inputs["awayMode"] = "Away";
    mode_app["inputs"] = std::move(mode_inputs);
    apps.push_back(json::Value(std::move(mode_app)));
    json::Object unlock_app;
    unlock_app["app"] = "Unlock Door";
    json::Object unlock_inputs;
    unlock_inputs["lock1"] =
        json::Array{json::Value("lock" + std::to_string(i))};
    unlock_app["inputs"] = std::move(unlock_inputs);
    apps.push_back(json::Value(std::move(unlock_app)));
  }
  json::Object doc;
  doc["name"] = "cluster scaling home";
  doc["devices"] = std::move(devices);
  doc["apps"] = std::move(apps);
  return config::ParseDeployment(json::Value(std::move(doc)));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace
}  // namespace iotsan

int main() {
  using namespace iotsan;

  constexpr int kPairs = 12;  // 24 independent related-set groups
  const unsigned hardware = std::thread::hardware_concurrency();

  core::CheckRequest request;
  request.deployment = Home(kPairs);
  request.options.jobs = 1;

  // Single-node baseline: the same plan executed in-process, no HTTP.
  const auto single_start = std::chrono::steady_clock::now();
  const core::CheckResponse single = core::RunCheck(request);
  const double single_seconds = SecondsSince(single_start);
  const std::string single_verdict = core::RenderViolations(single.report) +
                                     core::RenderResultLine(single.report);

  std::printf("cluster scaling: %d apps, %llu groups, %u hardware threads\n",
              kPairs * 2,
              static_cast<unsigned long long>(single.report.related_set_count),
              hardware);
  std::printf("  single-node    %7.2f s  %9.0f states/s\n", single_seconds,
              static_cast<double>(single.report.states_explored) /
                  single_seconds);
  {
    json::Object extra;
    extra["workers"] = 0;
    extra["wall_seconds"] = single_seconds;
    extra["states_per_second"] =
        static_cast<double>(single.report.states_explored) / single_seconds;
    bench::EmitStats("cluster_scaling", "single-node", single.report,
                     std::move(extra));
  }

  double one_worker_seconds = 0;
  double two_worker_speedup = 0;
  for (const int workers : {1, 2, 4}) {
    // N local worker processes in miniature: N in-process HTTP servers,
    // each searching serially.  The coordinator keeps one unit in
    // flight per worker, so cluster concurrency == worker count.
    std::vector<std::unique_ptr<server::Server>> fleet;
    cluster::ClusterOptions options;
    for (int i = 0; i < workers; ++i) {
      server::ServerConfig config;
      config.port = 0;
      config.jobs = 1;
      config.http_workers = 2;
      fleet.push_back(std::make_unique<server::Server>(std::move(config)));
      fleet.back()->Start();
      options.workers.push_back({"127.0.0.1", fleet.back()->port()});
    }
    cluster::Coordinator coordinator(std::move(options));

    const auto start = std::chrono::steady_clock::now();
    const cluster::ClusterOutcome outcome = coordinator.Check(request);
    const double seconds = SecondsSince(start);
    for (auto& server : fleet) server->Stop();

    const std::string verdict =
        core::RenderViolations(outcome.response.report) +
        core::RenderResultLine(outcome.response.report);
    if (verdict != single_verdict ||
        outcome.response.report.states_explored !=
            single.report.states_explored) {
      std::fprintf(stderr,
                   "cluster_scaling: %d-worker report diverged from "
                   "single-node\n",
                   workers);
      return 1;
    }
    if (outcome.units_local != 0 || outcome.degraded_local) {
      std::fprintf(stderr,
                   "cluster_scaling: %d-worker run fell back to local "
                   "execution\n",
                   workers);
      return 1;
    }

    if (workers == 1) one_worker_seconds = seconds;
    const double speedup =
        workers == 1 ? 1.0 : one_worker_seconds / seconds;
    if (workers == 2) two_worker_speedup = speedup;
    const double overhead_pct =
        (one_worker_seconds - single_seconds) / single_seconds * 100.0;

    std::printf("  workers=%d      %7.2f s  %9.0f states/s  "
                "speedup %4.2fx\n",
                workers, seconds,
                static_cast<double>(outcome.response.report.states_explored) /
                    seconds,
                speedup);

    json::Object extra;
    extra["workers"] = workers;
    extra["wall_seconds"] = seconds;
    extra["states_per_second"] =
        static_cast<double>(outcome.response.report.states_explored) / seconds;
    extra["speedup_vs_1_worker"] = speedup;
    extra["dispatch_overhead_pct"] = overhead_pct;
    extra["units_total"] = static_cast<std::int64_t>(outcome.units_total);
    extra["units_redispatched"] =
        static_cast<std::int64_t>(outcome.units_redispatched);
    bench::EmitStats("cluster_scaling",
                     "workers=" + std::to_string(workers),
                     outcome.response.report, std::move(extra));
  }

  const double dispatch_overhead_pct =
      (one_worker_seconds - single_seconds) / single_seconds * 100.0;
  std::printf("  1-worker dispatch overhead %.1f%% over single-node\n",
              dispatch_overhead_pct);

  // Acceptance gate: distributing over 2 workers must buy at least a
  // 1.6x speedup — anything less means dispatch overhead ate the
  // parallelism and the subsystem failed at its one job.  Only
  // enforceable where 2 workers can actually run concurrently.
  if (hardware >= 2 && two_worker_speedup < 1.6) {
    std::fprintf(stderr,
                 "cluster_scaling: 2-worker speedup %.2fx below the 1.6x "
                 "acceptance floor\n",
                 two_worker_speedup);
    return 1;
  }
  if (hardware < 2) {
    std::printf("  (1 hardware thread: 1.6x speedup gate not enforceable)\n");
  }
  return 0;
}
