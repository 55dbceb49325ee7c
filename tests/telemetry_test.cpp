// Telemetry tests: counter/gauge snapshots, latency histograms and
// their Prometheus exposition, span nesting and JSONL shape,
// search-progress cadence, and store-diagnostic math.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/checker.hpp"
#include "checker/state_store.hpp"
#include "config/builder.hpp"
#include "ir/analyzer.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace iotsan::telemetry {
namespace {

// ---- Registry ----------------------------------------------------------------

std::uint64_t SampleValue(const std::vector<Sample>& samples,
                          const std::string& name) {
  for (const Sample& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  ADD_FAILURE() << "no sample named " << name;
  return 0;
}

TEST(RegistryTest, SnapshotUsesDottedNamesAndLiveValues) {
  Registry registry;
  registry.search.states_explored = 42;
  registry.pipeline.apps_parsed = 7;
  registry.store.fill_permille = 123;

  std::vector<Sample> samples = registry.Snapshot();
  EXPECT_EQ(SampleValue(samples, "search.states_explored"), 42u);
  EXPECT_EQ(SampleValue(samples, "pipeline.apps_parsed"), 7u);
  EXPECT_EQ(SampleValue(samples, "store.fill_permille"), 123u);
  EXPECT_EQ(SampleValue(samples, "search.transitions"), 0u);
}

TEST(RegistryTest, ToJsonGroupsByLayer) {
  Registry registry;
  registry.search.transitions = 9;
  registry.store.entries = 5;

  const json::Value doc = registry.ToJson();
  EXPECT_EQ(doc.At("search").At("transitions").AsNumber(), 9);
  EXPECT_EQ(doc.At("store").At("entries").AsNumber(), 5);
  EXPECT_TRUE(doc.Has("pipeline"));
}

TEST(RegistryTest, ResetZeroesEverything) {
  Registry registry;
  ForEachCounter(registry, [](const char*, const char*, Counter& counter,
                              SampleKind) { counter = 7; });
  ForEachHistogram(registry, [](const char*, const char*,
                                Histogram& histogram) { histogram.Record(7); });
  for (const Sample& sample : registry.Snapshot()) {
    ASSERT_EQ(sample.value, 7u) << sample.name;
  }
  registry.Reset();
  for (const Sample& sample : registry.Snapshot()) {
    EXPECT_EQ(sample.value, 0u) << sample.name;
  }
  for (const HistogramSample& hist : registry.SnapshotHistograms()) {
    EXPECT_EQ(hist.snapshot.count, 0u) << hist.name;
    EXPECT_EQ(hist.snapshot.sum, 0u) << hist.name;
  }
}

TEST(RegistryTest, SampleNamesKindsAndOrderMatchGolden) {
  // --stats, /v1/metrics and Prometheus scrapes read these names in this
  // order (tests/data/telemetry_surface.txt).
  Registry registry;
  std::string surface;
  for (const Sample& sample : registry.Snapshot()) {
    surface += sample.kind == SampleKind::kGauge ? "gauge " : "counter ";
    surface += sample.name + "\n";
  }
  for (const HistogramSample& hist : registry.SnapshotHistograms()) {
    surface += "histogram " + hist.name + "\n";
  }
  std::ifstream in(IOTSAN_TEST_DATA_DIR "/telemetry_surface.txt");
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(surface, golden.str());
}

TEST(RegistryTest, SnapshotTagsGaugesAndCounters) {
  Registry registry;
  std::vector<Sample> samples = registry.Snapshot();
  auto kind_of = [&](const std::string& name) {
    for (const Sample& sample : samples) {
      if (sample.name == name) return sample.kind;
    }
    ADD_FAILURE() << "no sample named " << name;
    return SampleKind::kCounter;
  };
  // Point-in-time values are gauges; everything else accumulates.
  EXPECT_EQ(kind_of("store.entries"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("store.memory_bytes"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("store.fill_permille"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("store.omission_ppm"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("server.active_connections"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("server.queue_depth"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("store.saturation_warnings"), SampleKind::kCounter);
  EXPECT_EQ(kind_of("search.states_explored"), SampleKind::kCounter);
  EXPECT_EQ(kind_of("cache.hits"), SampleKind::kCounter);
}

// ---- Memory gauges -----------------------------------------------------------

TEST(MemoryGaugesTest, SnapshotCarriesMemorySamplesWithKinds) {
  Registry registry;
  registry.memory.store_exhaustive_bytes = 4096;
  registry.memory.trace_buffer_bytes = 128;

  std::vector<Sample> samples = registry.Snapshot();
  EXPECT_EQ(SampleValue(samples, "memory.store_exhaustive_bytes"), 4096u);
  EXPECT_EQ(SampleValue(samples, "memory.trace_buffer_bytes"), 128u);

  auto kind_of = [&](const std::string& name) {
    for (const Sample& sample : samples) {
      if (sample.name == name) return sample.kind;
    }
    ADD_FAILURE() << "no sample named " << name;
    return SampleKind::kCounter;
  };
  // Footprints are point-in-time; emitted trace bytes only accumulate.
  EXPECT_EQ(kind_of("memory.store_exhaustive_bytes"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("memory.store_bitstate_bytes"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("memory.cache_resident_bytes"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("memory.peak_rss_bytes"), SampleKind::kGauge);
  EXPECT_EQ(kind_of("memory.trace_buffer_bytes"), SampleKind::kCounter);
}

TEST(MemoryGaugesTest, ToJsonHasMemoryGroup) {
  Registry registry;
  registry.memory.cache_resident_bytes = 77;
  const json::Value doc = registry.ToJson();
  EXPECT_EQ(doc.At("memory").At("cache_resident_bytes").AsNumber(), 77);
  EXPECT_TRUE(doc.At("memory").Has("peak_rss_bytes"));
}

TEST(MemoryGaugesTest, SamplePeakRssIsPositiveAndMonotonic) {
  Registry registry;
  const std::uint64_t first = SamplePeakRss(registry);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(SampleValue(registry.Snapshot(), "memory.peak_rss_bytes"), first);

  // A stale higher watermark must never be regressed by a lower OS
  // sample — the gauge is monotonic by construction.
  const std::uint64_t inflated = first + (1ull << 40);
  registry.memory.peak_rss_bytes = inflated;
  SamplePeakRss(registry);
  EXPECT_EQ(SampleValue(registry.Snapshot(), "memory.peak_rss_bytes"), inflated);
}

TEST(MemoryGaugesTest, PrometheusRendersIotsanMemoryFamilies) {
  Registry registry;
  registry.memory.store_exhaustive_bytes = 1024;
  SamplePeakRss(registry);
  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("iotsan_memory_store_exhaustive_bytes 1024"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE iotsan_memory_store_exhaustive_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE iotsan_memory_trace_buffer_bytes counter"),
            std::string::npos);
  EXPECT_NE(text.find("iotsan_memory_peak_rss_bytes"), std::string::npos);
}

// ---- Histogram ---------------------------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below the sub-bucket count (8) get one bucket each.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v) << v;
    EXPECT_EQ(Histogram::BucketUpperBound(v), v) << v;
  }
}

TEST(HistogramTest, LogLinearBucketsBoundRelativeError) {
  EXPECT_EQ(Histogram::BucketIndex(8), 8u);
  EXPECT_EQ(Histogram::BucketUpperBound(8), 8u);
  EXPECT_EQ(Histogram::BucketIndex(15), 15u);
  EXPECT_EQ(Histogram::BucketUpperBound(15), 15u);
  // 16 opens the next group: two values per bucket.
  EXPECT_EQ(Histogram::BucketIndex(16), 16u);
  EXPECT_EQ(Histogram::BucketIndex(17), 16u);
  EXPECT_EQ(Histogram::BucketUpperBound(16), 17u);
  // Every value maps to a bucket whose upper bound is within 12.5%.
  for (std::uint64_t v = 1; v < (1ull << 40); v = v * 3 + 1) {
    const std::size_t index = Histogram::BucketIndex(v);
    const std::uint64_t upper = Histogram::BucketUpperBound(index);
    EXPECT_GE(upper, v) << v;
    EXPECT_LE(static_cast<double>(upper - v), 0.125 * v + 1) << v;
    if (index > 0) {
      EXPECT_LT(Histogram::BucketUpperBound(index - 1), v) << v;
    }
  }
}

TEST(HistogramTest, HugeValuesClampToTheLastBucket) {
  const std::uint64_t huge = ~std::uint64_t{0};
  EXPECT_EQ(Histogram::BucketIndex(huge), Histogram::kBuckets - 1);
  Histogram histogram;
  histogram.Record(huge);
  const HistogramSnapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, huge);
}

TEST(HistogramTest, SnapshotQuantilesTrackTheDistribution) {
  Histogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const HistogramSnapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_EQ(snap.max, 1000u);
  // Log-linear buckets: quantiles land within one bucket (≤12.5%).
  EXPECT_NEAR(snap.P50(), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(snap.P90(), 900.0, 900.0 * 0.13);
  EXPECT_NEAR(snap.P99(), 990.0, 990.0 * 0.13);
  // The quantile never exceeds the observed maximum.
  EXPECT_LE(snap.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram histogram;
  const HistogramSnapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_TRUE(snap.buckets.empty());
  EXPECT_EQ(snap.P50(), 0.0);
}

TEST(HistogramTest, ResetClearsAllState) {
  Histogram histogram;
  histogram.Record(7);
  histogram.Record(12345);
  histogram.Reset();
  const HistogramSnapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.max, 0u);
}

TEST(HistogramTest, MergeCombinesSnapshots) {
  Histogram a;
  Histogram b;
  for (std::uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (std::uint64_t v = 900; v <= 1000; ++v) b.Record(v);
  HistogramSnapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_EQ(merged.count, 201u);
  EXPECT_EQ(merged.max, 1000u);
  EXPECT_NEAR(merged.P99(), 1000.0, 1000.0 * 0.13);
  // Bucket bounds stay strictly increasing after the merge.
  for (std::size_t i = 1; i < merged.buckets.size(); ++i) {
    EXPECT_LT(merged.buckets[i - 1].le, merged.buckets[i].le);
  }
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<std::uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = histogram.TakeSnapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const HistogramSnapshot::Bucket& bucket : snap.buckets) {
    bucket_total += bucket.count;
  }
  EXPECT_EQ(bucket_total, snap.count);
}

// ---- Prometheus exposition ---------------------------------------------------

TEST(PrometheusTest, NameMappingPrefixesAndSanitizes) {
  EXPECT_EQ(PrometheusName("search.states_explored"),
            "iotsan_search_states_explored");
  EXPECT_EQ(PrometheusName("cache.lookup_hit_duration_us"),
            "iotsan_cache_lookup_hit_duration_us");
}

TEST(PrometheusTest, RenderIsValidAndCarriesHistogramFamilies) {
  Registry registry;
  registry.search.states_explored = 5;
  registry.server_hist.request_duration_us.Record(120);
  registry.server_hist.request_duration_us.Record(4500);
  registry.cache_hist.lookup_hit_duration_us.Record(3);

  const std::string text = RenderPrometheus(registry);
  const std::vector<std::string> problems = ValidateExposition(text);
  for (const std::string& problem : problems) ADD_FAILURE() << problem;

  // Counters and gauges render with a TYPE line and a value.
  EXPECT_NE(text.find("# TYPE iotsan_search_states_explored counter"),
            std::string::npos);
  EXPECT_NE(text.find("iotsan_search_states_explored 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE iotsan_store_entries gauge"),
            std::string::npos);

  // All histogram families render even when empty — the exposition
  // promises at least these families to scrapers.
  for (const char* family :
       {"iotsan_search_group_check_duration_us",
        "iotsan_cache_lookup_hit_duration_us",
        "iotsan_cache_lookup_miss_duration_us",
        "iotsan_parallel_task_run_duration_us",
        "iotsan_server_request_duration_us"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " histogram"),
              std::string::npos)
        << family;
    EXPECT_NE(text.find(std::string(family) + "_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << family;
    EXPECT_NE(text.find(std::string(family) + "_sum"), std::string::npos);
    EXPECT_NE(text.find(std::string(family) + "_count"), std::string::npos);
  }

  // The recorded samples show up in _count.
  EXPECT_NE(text.find("iotsan_server_request_duration_us_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("iotsan_cache_lookup_hit_duration_us_count 1"),
            std::string::npos);
}

TEST(PrometheusTest, ValidatorRejectsMalformedExposition) {
  // Garbage line.
  EXPECT_FALSE(ValidateExposition("this is not prometheus\n").empty());
  // Histogram without +Inf bucket.
  EXPECT_FALSE(ValidateExposition("# TYPE x histogram\n"
                                  "x_bucket{le=\"10\"} 1\n"
                                  "x_sum 5\n"
                                  "x_count 1\n")
                   .empty());
  // Non-monotone cumulative buckets.
  EXPECT_FALSE(ValidateExposition("# TYPE x histogram\n"
                                  "x_bucket{le=\"10\"} 5\n"
                                  "x_bucket{le=\"20\"} 3\n"
                                  "x_bucket{le=\"+Inf\"} 5\n"
                                  "x_sum 40\n"
                                  "x_count 5\n")
                   .empty());
  // +Inf disagreeing with _count.
  EXPECT_FALSE(ValidateExposition("# TYPE x histogram\n"
                                  "x_bucket{le=\"+Inf\"} 4\n"
                                  "x_sum 40\n"
                                  "x_count 5\n")
                   .empty());
  // A well-formed single-family document passes.
  EXPECT_TRUE(ValidateExposition("# TYPE x histogram\n"
                                 "x_bucket{le=\"10\"} 2\n"
                                 "x_bucket{le=\"+Inf\"} 2\n"
                                 "x_sum 11\n"
                                 "x_count 2\n")
                  .empty());
}

// ---- Spans and the trace sink ------------------------------------------------

TEST(TraceSinkTest, TotalsAggregateByName) {
  TraceSink sink;  // totals-only
  {
    ScopedSpan outer(&sink, "outer");
    ScopedSpan inner1(&sink, "inner");
  }
  {
    ScopedSpan inner2(&sink, "inner");
  }
  ASSERT_EQ(sink.totals().size(), 2u);
  EXPECT_EQ(sink.totals().at("outer").count, 1u);
  EXPECT_EQ(sink.totals().at("inner").count, 2u);
}

TEST(TraceSinkTest, NestedSpansEmitWellFormedJsonl) {
  const std::string path = testing::TempDir() + "/telemetry_spans.jsonl";
  {
    TraceSink sink(path);
    ScopedSpan outer(&sink, "outer");
    outer.Attr("system", "test");
    {
      ScopedSpan inner(&sink, "inner");
      inner.Attr("states", std::int64_t{17});
    }
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lines.push_back(json::Parse(line));  // throws on malformed JSON
  }
  ASSERT_EQ(lines.size(), 2u);

  // Spans are emitted on destruction: children before parents.
  EXPECT_EQ(lines[0].At("name").AsString(), "inner");
  EXPECT_EQ(lines[0].At("depth").AsNumber(), 1);
  EXPECT_EQ(lines[0].At("attrs").At("states").AsNumber(), 17);
  EXPECT_EQ(lines[1].At("name").AsString(), "outer");
  EXPECT_EQ(lines[1].At("depth").AsNumber(), 0);
  EXPECT_EQ(lines[1].At("attrs").At("system").AsString(), "test");

  // The parent's interval covers the child's.
  const double outer_start = lines[1].At("start_us").AsNumber();
  const double outer_end = outer_start + lines[1].At("dur_us").AsNumber();
  const double inner_start = lines[0].At("start_us").AsNumber();
  const double inner_end = inner_start + lines[0].At("dur_us").AsNumber();
  EXPECT_LE(outer_start, inner_start);
  EXPECT_LE(inner_end, outer_end);
}

TEST(ScopedSpanTest, NullSinkIsANoop) {
  ScopedSpan span(nullptr, "ignored");
  span.Attr("key", "value");
  span.Attr("n", std::int64_t{1});
  // Also via the (unset) process-global sink.
  SetActiveTrace(nullptr);
  ScopedSpan global("also_ignored");
  global.Attr("x", 2.0);
}

// ---- Search progress ---------------------------------------------------------

constexpr const char* kUnlockApp = R"(
definition(name: "UnlockOnAway", namespace: "t")
preferences {
    section("S") {
        input "p1", "capability.presenceSensor"
        input "lock1", "capability.lock"
    }
}
def installed() {
    subscribe(p1, "presence.notpresent", handler)
}
def handler(evt) {
    lock1.unlock()
}
)";

model::SystemModel UnlockModel() {
  config::DeploymentBuilder b("home");
  b.Device("p1", "presenceSensor", {"presence"});
  b.Device("lock1", "smartLock", {"mainDoorLock"});
  b.App("UnlockOnAway").Devices("p1", {"p1"}).Devices("lock1", {"lock1"});
  std::vector<ir::AnalyzedApp> apps;
  apps.push_back(ir::AnalyzeSource(kUnlockApp, "UnlockOnAway"));
  return model::SystemModel(b.Build(), std::move(apps));
}

TEST(ProgressTest, CallbackFiresAtTheRequestedCadence) {
  model::SystemModel model = UnlockModel();
  checker::Checker checker(model);
  // Under --jobs N the initial state is reported like every other one.
  for (int jobs : {1, 4}) {
    checker::CheckOptions options;
    options.max_events = 2;
    options.progress_every = 1;
    options.jobs = jobs;
    std::vector<ProgressSnapshot> seen;
    options.on_progress = [&seen](const ProgressSnapshot& snapshot) {
      seen.push_back(snapshot);
    };
    checker::CheckResult result = checker.Run(options);

    // Cadence 1 → one report per expanded state.
    EXPECT_EQ(seen.size(), result.states_explored) << "jobs " << jobs;
    ASSERT_FALSE(seen.empty());
    const ProgressSnapshot& last = seen.back();
    EXPECT_LE(last.states_explored, result.states_explored);
    EXPECT_GE(last.elapsed_seconds, 0.0);
    EXPECT_GE(last.pruning_ratio, 0.0);
    EXPECT_LE(last.pruning_ratio, 1.0);
    EXPECT_EQ(last.depth_histogram.size(), result.depth_histogram.size());
    EXPECT_EQ(last.jobs, jobs);
  }
}

TEST(ProgressTest, BudgetStopDeliversFinalSnapshot) {
  model::SystemModel model = UnlockModel();
  checker::Checker checker(model);
  checker::CheckOptions options;
  options.max_events = 3;
  options.max_states = 2;  // force an early stop
  std::vector<ProgressSnapshot> seen;
  options.on_progress = [&seen](const ProgressSnapshot& snapshot) {
    seen.push_back(snapshot);
  };
  checker::CheckResult result = checker.Run(options);

  EXPECT_FALSE(result.completed);
  // progress_every stayed 0, so the only report is the stop-time one.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.back().states_explored, result.states_explored);
}

// Golden renderings: the progress line is part of the operator-facing
// surface (docs/observability.md quotes it), so its exact shape is
// pinned for the serial, parallel, and cache-active cases.
TEST(ProgressTest, FormatProgressGoldenSerial) {
  ProgressSnapshot snapshot;
  snapshot.states_explored = 1200;
  snapshot.states_per_second = 600;
  snapshot.states_matched = 300;
  snapshot.pruning_ratio = 0.2;
  snapshot.transitions = 4000;
  snapshot.cascade_drains = 5;
  snapshot.depth_histogram = {1, 3, 8};
  EXPECT_EQ(FormatProgress(snapshot),
            "progress: 1200 states (600/s), 300 matched (20.0% pruned), "
            "4000 transitions, 5 drains, depth 1|3|8");
}

TEST(ProgressTest, FormatProgressGoldenParallel) {
  ProgressSnapshot snapshot;
  snapshot.states_explored = 50000;
  snapshot.states_per_second = 12500;
  snapshot.states_matched = 10000;
  snapshot.pruning_ratio = 0.5;
  snapshot.transitions = 90000;
  snapshot.cascade_drains = 7;
  snapshot.store_fill_ratio = 0.1234;
  snapshot.jobs = 4;
  snapshot.branches_total = 9;
  snapshot.branches_done = 6;
  EXPECT_EQ(FormatProgress(snapshot),
            "progress: 50000 states (12500/s), 10000 matched (50.0% "
            "pruned), 90000 transitions, 7 drains, store fill 12.34%, "
            "jobs 4, branches 6/9");
}

TEST(ProgressTest, FormatProgressGoldenCacheActive) {
  ProgressSnapshot snapshot;
  snapshot.states_explored = 10;
  snapshot.states_per_second = 5;
  snapshot.states_matched = 0;
  snapshot.pruning_ratio = 0.0;
  snapshot.transitions = 12;
  snapshot.cascade_drains = 0;
  snapshot.cache_hits = 3;
  snapshot.cache_misses = 1;
  EXPECT_EQ(FormatProgress(snapshot),
            "progress: 10 states (5/s), 0 matched (0.0% pruned), "
            "12 transitions, 0 drains, cache 3 hit/1 miss");
}

TEST(ProgressTest, FormatProgressMentionsTheHeadlineNumbers) {
  ProgressSnapshot snapshot;
  snapshot.states_explored = 1200;
  snapshot.states_matched = 300;
  snapshot.transitions = 4000;
  snapshot.states_per_second = 600;
  snapshot.pruning_ratio = 0.2;
  snapshot.depth_histogram = {1, 3, 8};
  const std::string line = FormatProgress(snapshot);
  EXPECT_NE(line.find("progress:"), std::string::npos);
  EXPECT_NE(line.find("1200"), std::string::npos);
  EXPECT_NE(line.find("4000"), std::string::npos);
}

// ---- Store diagnostics -------------------------------------------------------

TEST(StoreDiagnosticsTest, OmissionProbabilityIsFillToThePowerK) {
  checker::BitstateStore store(64, 2);
  for (int i = 0; i < 40; ++i) {
    std::uint8_t bytes[2] = {static_cast<std::uint8_t>(i),
                             static_cast<std::uint8_t>(i * 7)};
    store.TestAndInsert(bytes);
  }
  const double fill = store.FillRatio();
  ASSERT_GT(fill, 0.0);
  EXPECT_NEAR(store.EstOmissionProbability(), fill * fill, 1e-12);
}

TEST(StoreDiagnosticsTest, ExhaustiveStoreNeverOmits) {
  checker::ExhaustiveStore store;
  std::uint8_t bytes[1] = {1};
  store.TestAndInsert(bytes);
  EXPECT_EQ(store.FillRatio(), 0.0);
  EXPECT_EQ(store.EstOmissionProbability(), 0.0);
}

TEST(StoreDiagnosticsTest, CheckResultCarriesStoreDiagnostics) {
  model::SystemModel model = UnlockModel();
  checker::Checker checker(model);
  checker::CheckOptions options;
  options.max_events = 2;
  options.store = checker::StoreKind::kBitstate;
  options.bitstate_bits = 1 << 10;
  checker::CheckResult result = checker.Run(options);

  EXPECT_GT(result.store_entries, 0u);
  EXPECT_GT(result.store_memory_bytes, 0u);
  EXPECT_GT(result.store_fill_ratio, 0.0);
  EXPECT_GE(result.est_omission_probability, 0.0);
  std::uint64_t histogram_sum = 0;
  for (std::uint64_t count : result.depth_histogram) histogram_sum += count;
  EXPECT_EQ(histogram_sum, result.states_explored);
}

TEST(StoreDiagnosticsTest, RunPublishesGaugesToActiveRegistry) {
  Registry registry;
  SetActive(&registry);
  model::SystemModel model = UnlockModel();
  checker::Checker checker(model);
  checker::CheckOptions options;
  options.max_events = 1;
  options.store = checker::StoreKind::kBitstate;
  options.bitstate_bits = 1 << 10;
  checker::CheckResult result = checker.Run(options);
  SetActive(nullptr);

  EXPECT_EQ(registry.search.states_explored, result.states_explored);
  EXPECT_EQ(registry.pipeline.checks_run, 1u);
  EXPECT_EQ(registry.store.entries, result.store_entries);
  EXPECT_GT(registry.store.fill_permille, 0u);
  EXPECT_GT(registry.search.handler_dispatches, 0u);
}

}  // namespace
}  // namespace iotsan::telemetry
