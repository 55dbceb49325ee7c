// Fleet delta re-verification latency: the p99 cost of re-checking a
// 150-app deployment after a one-app edit, against re-checking it from
// scratch.
//
// The registry's pitch is that a fleet PUT is an *edit*, not a new
// system: a fleet check fingerprints every related-set group and
// searches only the groups the server's result cache does not hold, so
// after an edit only the groups the revision touched run (byte-identical
// to a cold full check — the registry_test asserts that; this bench
// measures what it buys).
//
//   BENCH_STATS {"bench":"fleet_delta","label":"full check",
//                "p50_ms":...,"p99_ms":...,"groups_total":150,...}
//   BENCH_STATS {"bench":"fleet_delta","label":"delta 1-app edit",
//                "p99_ms":...,"groups_recomputed":1,
//                "speedup_p99":...,"groups_rerun_fraction":0.0066}
//
// Acceptance (ISSUE 9): speedup_p99 >= 5, groups_rerun_fraction < 0.10.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "cache/result_cache.hpp"
#include "config/deployment.hpp"
#include "core/service.hpp"
#include "registry/fleet.hpp"
#include "util/json.hpp"

using namespace iotsan;

namespace {

/// One violating presence/lock pair (the paper's §8 example) plus
/// `cold_apps` independent "It's Too Cold" instances on private
/// sensor/heater pairs — each its own related-set group, none touching
/// location mode, so a `threshold` edit on instance 0 dirties exactly
/// one group fingerprint.
json::Value DeploymentJson(int cold_apps, int threshold) {
  json::Array devices;
  json::Array apps;
  {
    json::Object presence;
    presence["id"] = "presence0";
    presence["type"] = "presenceSensor";
    presence["roles"] = json::Array{json::Value("presence")};
    devices.push_back(json::Value(std::move(presence)));
    json::Object lock;
    lock["id"] = "lock0";
    lock["type"] = "smartLock";
    lock["roles"] = json::Array{json::Value("mainDoorLock")};
    devices.push_back(json::Value(std::move(lock)));
    json::Object mode_app;
    mode_app["app"] = "Auto Mode Change";
    json::Object mode_inputs;
    mode_inputs["people"] = json::Array{json::Value("presence0")};
    mode_inputs["homeMode"] = "Home";
    mode_inputs["awayMode"] = "Away";
    mode_app["inputs"] = std::move(mode_inputs);
    apps.push_back(json::Value(std::move(mode_app)));
    json::Object unlock_app;
    unlock_app["app"] = "Unlock Door";
    json::Object unlock_inputs;
    unlock_inputs["lock1"] = json::Array{json::Value("lock0")};
    unlock_app["inputs"] = std::move(unlock_inputs);
    apps.push_back(json::Value(std::move(unlock_app)));
  }
  for (int i = 0; i < cold_apps; ++i) {
    json::Object sensor;
    sensor["id"] = "temp" + std::to_string(i);
    sensor["type"] = "motionTempSensor";
    devices.push_back(json::Value(std::move(sensor)));
    json::Object heater;
    heater["id"] = "heater" + std::to_string(i);
    heater["type"] = "smartSwitch";
    devices.push_back(json::Value(std::move(heater)));
    json::Object app;
    app["app"] = "It's Too Cold";
    json::Object inputs;
    inputs["temperatureSensor1"] =
        json::Array{json::Value("temp" + std::to_string(i))};
    inputs["temperature1"] = i == 0 ? threshold : 40;
    inputs["switch1"] =
        json::Array{json::Value("heater" + std::to_string(i))};
    app["inputs"] = std::move(inputs);
    apps.push_back(json::Value(std::move(app)));
  }
  json::Object doc;
  doc["name"] = "fleet bench home";
  doc["devices"] = std::move(devices);
  doc["apps"] = std::move(apps);
  return json::Value(std::move(doc));
}

registry::StoredDeployment Stored(int cold_apps, int threshold) {
  registry::StoredDeployment out;
  out.id = "bench";
  out.deployment = config::ParseDeployment(DeploymentJson(cold_apps,
                                                          threshold));
  return out;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

}  // namespace

int main() {
  constexpr int kColdApps = 148;  // + the violating pair = 150 apps
  constexpr int kFullIters = 10;
  constexpr int kDeltaIters = 40;

  core::RequestOptions options;
  options.jobs = 1;

  // Full re-checks: a fresh registry over a fresh cache per iteration,
  // so every group runs (what a fleet without reuse pays on every edit).
  std::vector<double> full_ms;
  std::uint64_t groups_total = 0;
  for (int i = 0; i < kFullIters; ++i) {
    cache::ResultCache cache(cache::CacheConfig{});
    core::ServiceEnv env;
    env.cache = &cache;
    registry::Fleet fleet{registry::StoreConfig{}};
    fleet.Put(Stored(kColdApps, 35 + i));
    const auto start = std::chrono::steady_clock::now();
    auto outcome = fleet.Check("bench", std::nullopt, options, env);
    full_ms.push_back(MillisSince(start));
    if (!outcome || outcome->groups_recomputed != outcome->groups_total) {
      std::fprintf(stderr, "fleet_delta: full check did not run cold\n");
      return 1;
    }
    groups_total = outcome->groups_total;
  }

  // Delta re-checks: one long-lived registry and cache, each revision
  // editing a single app input (instance 0's temperature threshold).
  cache::ResultCache cache(cache::CacheConfig{});
  core::ServiceEnv env;
  env.cache = &cache;
  registry::Fleet fleet{registry::StoreConfig{}};
  fleet.Put(Stored(kColdApps, 40));
  fleet.Check("bench", std::nullopt, options, env);
  std::vector<double> delta_ms;
  std::uint64_t recomputed = 0;
  for (int i = 0; i < kDeltaIters; ++i) {
    fleet.Put(Stored(kColdApps, 50 + i));
    const auto start = std::chrono::steady_clock::now();
    auto outcome = fleet.Check("bench", std::nullopt, options, env);
    delta_ms.push_back(MillisSince(start));
    if (!outcome || outcome->groups_reused == 0) {
      std::fprintf(stderr, "fleet_delta: delta check reused nothing\n");
      return 1;
    }
    recomputed = outcome->groups_recomputed;
  }

  const double full_p50 = Percentile(full_ms, 0.50);
  const double full_p99 = Percentile(full_ms, 0.99);
  const double delta_p50 = Percentile(delta_ms, 0.50);
  const double delta_p99 = Percentile(delta_ms, 0.99);
  const double speedup = delta_p99 > 0 ? full_p99 / delta_p99 : 0;
  const double rerun_fraction =
      groups_total > 0
          ? static_cast<double>(recomputed) / static_cast<double>(groups_total)
          : 1.0;

  std::printf("fleet delta: %d apps, %llu groups\n", kColdApps + 2,
              static_cast<unsigned long long>(groups_total));
  std::printf("  full  p50 %8.2f ms   p99 %8.2f ms  (%d iters)\n", full_p50,
              full_p99, kFullIters);
  std::printf("  delta p50 %8.2f ms   p99 %8.2f ms  (%d iters, %llu/%llu "
              "groups re-run)\n",
              delta_p50, delta_p99, kDeltaIters,
              static_cast<unsigned long long>(recomputed),
              static_cast<unsigned long long>(groups_total));
  std::printf("  p99 speedup %.1fx\n", speedup);

  json::Object full_payload;
  full_payload["p50_ms"] = full_p50;
  full_payload["p99_ms"] = full_p99;
  full_payload["iterations"] = kFullIters;
  full_payload["apps"] = kColdApps + 2;
  full_payload["groups_total"] = static_cast<std::int64_t>(groups_total);
  bench::EmitStatsJson("fleet_delta", "full check", std::move(full_payload));

  json::Object delta_payload;
  delta_payload["p50_ms"] = delta_p50;
  delta_payload["p99_ms"] = delta_p99;
  delta_payload["iterations"] = kDeltaIters;
  delta_payload["groups_total"] = static_cast<std::int64_t>(groups_total);
  delta_payload["groups_recomputed"] = static_cast<std::int64_t>(recomputed);
  delta_payload["groups_rerun_fraction"] = rerun_fraction;
  delta_payload["speedup_p99"] = speedup;
  bench::EmitStatsJson("fleet_delta", "delta 1-app edit",
                       std::move(delta_payload));

  // Acceptance: the delta path must beat a from-scratch re-check by at
  // least 5x at p99 while re-running under 10% of the groups.
  if (speedup < 5.0 || rerun_fraction >= 0.10) {
    std::fprintf(stderr,
                 "fleet_delta: acceptance FAILED (speedup %.2f, rerun "
                 "fraction %.3f)\n",
                 speedup, rerun_fraction);
    return 1;
  }
  return 0;
}
