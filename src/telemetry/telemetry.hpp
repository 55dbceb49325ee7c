// Telemetry: lightweight observability for the checking pipeline.
//
// Four cooperating pieces, all zero-dependency and lock-free on the
// counting hot path:
//   * Registry — named monotonic counters and gauges.  Counters are
//     relaxed std::atomic<uint64_t> members grouped in structs, so the
//     parallel search workers tick them without synchronization;
//     instrumented code pays exactly one branch per event when telemetry
//     is disabled (`if (auto* t = Active())`) and one relaxed increment
//     when enabled.  Snapshots are taken on demand; nothing is formatted
//     until asked.
//   * Histogram — HdrHistogram-style log-linear latency/size
//     distributions (fixed buckets, relaxed-atomic increments, no mutex
//     on record).  Registered alongside the counters and exposed as
//     Prometheus histogram families (telemetry/prometheus.hpp).
//   * TraceSink + ScopedSpan — RAII phase spans over a steady clock.
//     Each completed span is one JSON object per line (JSONL): name,
//     start_us, dur_us, depth, attrs.  The sink also aggregates
//     per-name totals so `--stats` can report per-phase cost without a
//     trace file.  Span completion takes a mutex (spans are rare —
//     phases, not states).
//   * ProgressCounter — the one progress stream of a check: it counts
//     the check's explored states and finished related sets, and hands
//     each Progress report to the check's callback (the CLI's
//     --progress-every line, the server's /v1/status row and SSE feed).
//
// The active Registry/TraceSink are process-global raw pointers set by
// the embedding tool (CLI, bench, test); the globals must only be
// flipped between runs, not during one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace iotsan::telemetry {

// ---- Counter registry --------------------------------------------------------

/// Relaxed atomic counter: worker threads tick concurrently; exact
/// cross-counter consistency is only guaranteed at rest (between runs).
using Counter = std::atomic<std::uint64_t>;

// Each counter group is declared once, as an X-macro list of
// X(name, kind) rows (kind: kCounter or kGauge).  The list generates the
// group's struct members, and Registry's snapshot, reset and JSON
// output iterate it, so a new counter is one list row.
#define IOTSAN_COUNTER_FIELD(name, kind) Counter name{0};

/// Search-layer counters (checker + cascade engine).  All monotonic.
#define IOTSAN_SEARCH_COUNTERS(X)                                             \
  X(states_explored, kCounter)     /* stable states expanded */               \
  X(states_matched, kCounter)      /* pruned as already-seen */               \
  X(transitions, kCounter)         /* (event, failure) applications */        \
  X(cascade_drains, kCounter)      /* cascades drained to quiescence */       \
  X(events_injected, kCounter)     /* external events injected */             \
  X(handler_dispatches, kCounter)  /* app handler invocations */              \
  X(invariant_evals, kCounter)     /* property-expression evaluations */      \
  X(violations_recorded, kCounter)                                            \
  X(budget_stops, kCounter)        /* runs cut short by a budget */           \
  X(progress_reports, kCounter)    /* check progress reports sent */         \
  X(replays_run, kCounter)         /* deterministic trace re-executions */    \
  X(replays_reproduced, kCounter)  /* replays that re-fired the property */   \
  X(replays_refuted, kCounter)     /* bitstate violations replay killed */
struct SearchCounters { IOTSAN_SEARCH_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Pipeline-layer counters (translator, dependency analyzer, model
/// generator, output analyzer).  All monotonic.
#define IOTSAN_PIPELINE_COUNTERS(X)                                           \
  X(apps_parsed, kCounter)         /* SmartScript sources parsed */           \
  X(parse_failures, kCounter)                                                 \
  X(type_problems, kCounter)       /* type-inference diagnostics */           \
  X(dependency_edges, kCounter)    /* edges in dependency graphs */           \
  X(related_sets, kCounter)        /* related sets computed */                \
  X(models_built, kCounter)        /* SystemModel instantiations */           \
  X(checks_run, kCounter)          /* Checker::Run completions */             \
  X(configs_enumerated, kCounter)  /* attribution configurations */           \
  X(attributions, kCounter)        /* AttributeApp completions */
struct PipelineCounters { IOTSAN_PIPELINE_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// State-store gauges: last-written values, not monotonic.  Ratios are
/// kept in fixed point so every sample is a uint64 (permille = 1/1000,
/// ppm = 1/1e6).  bytes_per_state is the average store bytes paid per
/// stored state (key bytes + bookkeeping + intern-pool arenas when
/// COLLAPSE compression is on), the headline gauge the compression work
/// is measured by.  saturation_warnings counts the checks that ended
/// above the 50%-occupancy saturation threshold (the stderr warning
/// itself is emitted once per run; this counter still ticks per
/// saturated check), and is monotonic, unlike the gauges.
#define IOTSAN_STORE_GAUGES(X)                                                \
  X(entries, kGauge)                                                          \
  X(memory_bytes, kGauge)                                                     \
  X(fill_permille, kGauge)         /* bit occupancy for BITSTATE */           \
  X(omission_ppm, kGauge)          /* estimated hash-omission probability */  \
  X(bytes_per_state, kGauge)       /* average store bytes per state */        \
  X(saturation_warnings, kCounter) /* checks that ended saturated */
struct StoreGauges { IOTSAN_STORE_GAUGES(IOTSAN_COUNTER_FIELD) };

/// Partial-order-reduction counters (cascade engine, concurrent
/// scheduling with CheckOptions::por).  All monotonic.
#define IOTSAN_POR_COUNTERS(X)                                                \
  X(ample_singletons, kCounter)    /* expansions reduced to one pick */       \
  X(full_expansions, kCounter)     /* expansions that fanned out fully */     \
  X(interleavings_pruned, kCounter) /* picks skipped by ample singletons */   \
  X(fallback_unknown, kCounter)    /* full: some footprint unboundable */     \
  X(fallback_visible, kCounter)    /* full: property-relevant write */        \
  X(fallback_conflict, kCounter)   /* full: overlapping footprints */         \
  X(fallback_depth, kCounter)      /* full: cascade-bound proviso */
struct PorCounters { IOTSAN_POR_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// COLLAPSE state-compression counters (--state-compression).  Pool
/// entries/bytes are gauges (last-written); the rest are monotonic.
#define IOTSAN_COMPRESS_COUNTERS(X)                                           \
  X(states_encoded, kCounter)      /* states turned into index tuples */      \
  X(intern_lookups, kCounter)      /* component lookups across all pools */   \
  X(intern_hits, kCounter)         /* ... served by an existing pool entry */ \
  X(pool_entries, kGauge)          /* distinct interned components */         \
  X(pool_bytes, kGauge)            /* arena + index bytes across pools */
struct CompressCounters { IOTSAN_COMPRESS_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Parallel-execution counters: thread-pool activity and how much work
/// each fan-out layer partitioned.  All monotonic.
#define IOTSAN_PARALLEL_COUNTERS(X)                                           \
  X(pools_created, kCounter)       /* thread pools constructed */             \
  X(workers_spawned, kCounter)     /* dedicated worker threads started */     \
  X(tasks_run, kCounter)           /* pool task bodies executed */            \
  X(tasks_stolen, kCounter)        /* tasks executed on a lane != push lane */ \
  X(branch_tasks, kCounter)        /* root (event × failure) branches */      \
  X(group_tasks, kCounter)         /* sanitizer related sets fanned out */    \
  X(config_tasks, kCounter)        /* attribution configurations fanned out */
struct ParallelCounters { IOTSAN_PARALLEL_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Incremental-analysis cache counters (src/cache): per-group result
/// memoization across check/attribute runs.  All monotonic.
#define IOTSAN_CACHE_COUNTERS(X)                                              \
  X(lookups, kCounter)             /* Lookup() calls (memory or disk) */      \
  X(hits, kCounter)                /* results served from the cache */        \
  X(hits_memory, kCounter)         /* ... of which from the in-memory LRU */  \
  X(hits_disk, kCounter)           /* ... of which deserialized from disk */  \
  X(misses, kCounter)              /* lookups that fell through to a check */ \
  X(stores, kCounter)              /* entries written (memory and/or disk) */ \
  X(store_skips, kCounter)         /* results refused (incomplete/bitstate) */ \
  X(evictions, kCounter)           /* LRU entries displaced from memory */    \
  X(corrupt_entries, kCounter)     /* unreadable disk entries (a miss) */     \
  X(bytes_read, kCounter)          /* disk entry bytes deserialized */        \
  X(bytes_written, kCounter)       /* disk entry bytes written */             \
  X(singleflight_waits, kCounter)  /* lookups that waited on an in-flight key */
struct CacheCounters { IOTSAN_CACHE_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Verification-service counters (src/server): HTTP traffic, request
/// outcomes, and load shedding.  Monotonic except the two gauges.
#define IOTSAN_SERVER_COUNTERS(X)                                             \
  X(connections_accepted, kCounter) /* TCP connections accepted */            \
  X(requests, kCounter)            /* HTTP requests routed */                 \
  X(responses_ok, kCounter)        /* 2xx responses */                        \
  X(responses_client_error, kCounter) /* 4xx responses */                     \
  X(responses_server_error, kCounter) /* 5xx responses */                     \
  X(checks, kCounter)              /* POST /v1/check handled */               \
  X(attributions, kCounter)        /* POST /v1/attribute handled */           \
  X(bad_requests, kCounter)        /* malformed HTTP / JSON / schema */       \
  X(shed_queue_full, kCounter)     /* connections shed with 503 */            \
  X(shed_oversized, kCounter)      /* requests shed with 413 */               \
  X(deadline_hits, kCounter)       /* requests stopped by their deadline */   \
  X(active_connections, kGauge)    /* sessions currently serving */           \
  X(queue_depth, kGauge)           /* accepted-but-unserved conns */
struct ServerCounters { IOTSAN_SERVER_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Fleet-registry counters (src/registry): deployment lifecycle plus
/// the plan positions of fleet checks, split into result-cache hits
/// (reused) and searches (recomputed).  The split is the incrementality
/// headline — the fleet smoke test asserts `registry.groups_reused > 0`
/// after a 1-app edit.
#define IOTSAN_REGISTRY_COUNTERS(X)                                           \
  X(deployments_put, kCounter)     /* PUT upserts accepted */                 \
  X(deployments_deleted, kCounter) /* DELETE removals */                      \
  X(checks_full, kCounter)         /* checks with no cached group */         \
  X(checks_delta, kCounter)        /* checks that reused >=1 cached group */  \
  X(groups_total, kCounter)        /* plan positions across all checks */     \
  X(groups_reused, kCounter)       /* positions taken from the cache */       \
  X(groups_recomputed, kCounter)   /* positions searched */                   \
  X(revision_conflicts, kCounter)  /* If-Match guard rejections (409) */      \
  X(corrupt_entries, kCounter)     /* unreadable entries (= not_found) */     \
  X(evictions, kCounter)           /* in-memory LRU layer evictions */
struct FleetRegistryCounters { IOTSAN_REGISTRY_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Cluster-coordinator counters (src/cluster): work-unit lifecycle and
/// worker-fleet health.  Monotonic except workers_healthy.
#define IOTSAN_CLUSTER_COUNTERS(X)                                            \
  X(checks, kCounter)              /* coordinated checks run */               \
  X(units_planned, kCounter)       /* work units produced by the planner */   \
  X(units_dispatched, kCounter)    /* batch requests sent, one per batch */   \
  X(units_completed, kCounter)     /* units merged into a report */           \
  X(units_redispatched, kCounter)  /* units re-queued off a failed worker */  \
  X(units_local, kCounter)         /* units run locally as a fallback */      \
  X(local_fallback_checks, kCounter) /* whole checks degraded to local */     \
  X(retries, kCounter)             /* transient-error retry sleeps */         \
  X(worker_failures, kCounter)     /* workers marked dead mid-check */        \
  X(health_probes, kCounter)       /* GET /v1/health probes sent */           \
  X(workers_healthy, kGauge)       /* healthy workers at last probe */
struct ClusterCounters { IOTSAN_CLUSTER_COUNTERS(IOTSAN_COUNTER_FIELD) };

/// Byte-level memory accounting: where a verification's footprint
/// lives.  The store gauges split by kind so a bitstate run's fixed
/// bit-field and an exhaustive run's growing hash sets are separately
/// visible; peak_rss_bytes is the OS's high-water mark for the whole
/// process (monotonic by construction — getrusage never goes down).
/// These are the baseline the planned COLLAPSE/arena compression work
/// will be measured against.
#define IOTSAN_MEMORY_GAUGES(X)                                               \
  X(store_exhaustive_bytes, kGauge) /* last exhaustive-store footprint */     \
  X(store_bitstate_bytes, kGauge)  /* last bitstate bit-field size */         \
  X(trace_buffer_bytes, kCounter)  /* JSONL span bytes emitted */             \
  X(cache_resident_bytes, kGauge)  /* in-memory result-cache footprint */     \
  X(peak_rss_bytes, kGauge)        /* process peak RSS, monotonic */
struct MemoryGauges { IOTSAN_MEMORY_GAUGES(IOTSAN_COUNTER_FIELD) };

/// Every counter group, in Snapshot order: X(Registry member, list).
#define IOTSAN_COUNTER_GROUPS(X)                                              \
  X(search, IOTSAN_SEARCH_COUNTERS)                                           \
  X(pipeline, IOTSAN_PIPELINE_COUNTERS)                                       \
  X(store, IOTSAN_STORE_GAUGES)                                               \
  X(por, IOTSAN_POR_COUNTERS)                                                 \
  X(compress, IOTSAN_COMPRESS_COUNTERS)                                       \
  X(parallel, IOTSAN_PARALLEL_COUNTERS)                                       \
  X(cache, IOTSAN_CACHE_COUNTERS)                                             \
  X(server, IOTSAN_SERVER_COUNTERS)                                           \
  X(registry, IOTSAN_REGISTRY_COUNTERS)                                       \
  X(cluster, IOTSAN_CLUSTER_COUNTERS)                                         \
  X(memory, IOTSAN_MEMORY_GAUGES)

/// Whether a sample is a monotonically increasing counter or a
/// last-written gauge — Prometheus exposition needs the distinction for
/// its `# TYPE` lines (JSON output carries values only and is unchanged
/// by the kind).
enum class SampleKind { kCounter, kGauge };

struct Sample {
  std::string name;
  std::uint64_t value = 0;
  SampleKind kind = SampleKind::kCounter;
};

// ---- Histograms --------------------------------------------------------------

/// A mergeable point-in-time view of one Histogram: total count/sum,
/// the largest recorded value, and the non-empty buckets in ascending
/// order of their inclusive upper bound.
struct HistogramSnapshot {
  struct Bucket {
    std::uint64_t le = 0;     // inclusive upper bound of the bucket
    std::uint64_t count = 0;  // records in this bucket (not cumulative)
  };
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<Bucket> buckets;

  /// Upper-bound estimate of the q-quantile (q in [0, 1]); 0 when empty.
  /// The answer is the bound of the bucket holding the target rank, so
  /// it is exact for small values and within the bucket width (12.5%)
  /// beyond the linear range.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }

  /// Folds `other` in: counts add bucket-wise, max takes the larger.
  void Merge(const HistogramSnapshot& other);
};

/// A lock-free log-linear histogram for microsecond latencies and byte
/// sizes (HdrHistogram's bucketing, fixed at 8 sub-buckets per power of
/// two: values 0..7 are exact, larger ones land within 12.5% of their
/// bucket bound).  Record() is wait-free — one relaxed fetch_add per
/// bucket/sum plus a relaxed CAS loop for the max — so search workers,
/// pool threads, and HTTP sessions record concurrently with no mutex.
class Histogram {
 public:
  /// log2 of the sub-bucket count per power of two.
  static constexpr unsigned kSubBucketBits = 3;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
  /// Bucket count covering 0 .. 2^62-1 (larger values clamp into the
  /// last bucket): 8 exact + 8 per msb position 3..61.
  static constexpr std::size_t kBuckets = kSubBuckets * 60;

  void Record(std::uint64_t value);

  /// Index of the bucket holding `value`, and the bucket's inclusive
  /// upper bound (exposed for the tests).
  static std::size_t BucketIndex(std::uint64_t value);
  static std::uint64_t BucketUpperBound(std::size_t index);

  /// Relaxed-consistent snapshot: buckets recorded mid-snapshot may or
  /// may not appear; exact totals are only guaranteed at rest.
  HistogramSnapshot TakeSnapshot() const;

  void Reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// Histogram groups follow the counter groups' pattern: one X(name) row
// per histogram.
#define IOTSAN_HISTOGRAM_FIELD(name) Histogram name;

/// Search-layer distributions: how long one related-set group takes to
/// check end to end (cache hits included — that is the latency a caller
/// observes) and the search throughput each computed group achieved.
#define IOTSAN_SEARCH_HISTOGRAMS(X) \
  X(group_check_duration_us) X(group_states_per_second)
struct SearchHistograms { IOTSAN_SEARCH_HISTOGRAMS(IOTSAN_HISTOGRAM_FIELD) };

/// Cache lookup latency, split by outcome so a disk-heavy cache cannot
/// hide behind fast memory hits.
#define IOTSAN_CACHE_HISTOGRAMS(X) \
  X(lookup_hit_duration_us) X(lookup_miss_duration_us)
struct CacheHistograms { IOTSAN_CACHE_HISTOGRAMS(IOTSAN_HISTOGRAM_FIELD) };

/// Thread-pool distributions, fed through util::SetPoolTimingHooks (the
/// pool itself stays below telemetry): per-task run time and how long an
/// idle worker waited before it obtained its next task.
#define IOTSAN_PARALLEL_HISTOGRAMS(X) \
  X(task_run_duration_us) X(steal_wait_duration_us)
struct ParallelHistograms {
  IOTSAN_PARALLEL_HISTOGRAMS(IOTSAN_HISTOGRAM_FIELD)
};

/// Verification-service distributions: request handling latency, how
/// long an accepted connection sat in the queue before a session thread
/// picked it up, and request body sizes.
#define IOTSAN_SERVER_HISTOGRAMS(X) \
  X(request_duration_us) X(queue_wait_us) X(request_body_bytes)
struct ServerHistograms { IOTSAN_SERVER_HISTOGRAMS(IOTSAN_HISTOGRAM_FIELD) };

/// Fleet-registry distributions: wall-clock latency of a full check vs.
/// a delta re-check (the bench_fleet_delta headline split).
#define IOTSAN_REGISTRY_HISTOGRAMS(X) \
  X(full_check_duration_us) X(delta_check_duration_us)
struct FleetRegistryHistograms {
  IOTSAN_REGISTRY_HISTOGRAMS(IOTSAN_HISTOGRAM_FIELD)
};

/// Cluster distributions: end-to-end latency of one dispatched work
/// unit (HTTP round trip included — the coordinator's cost per unit).
#define IOTSAN_CLUSTER_HISTOGRAMS(X) X(dispatch_latency_us)
struct ClusterHistograms {
  IOTSAN_CLUSTER_HISTOGRAMS(IOTSAN_HISTOGRAM_FIELD)
};

/// Every histogram group, in SnapshotHistograms order: X(Registry member,
/// name prefix, list).
#define IOTSAN_HISTOGRAM_GROUPS(X)                      \
  X(search_hist, search, IOTSAN_SEARCH_HISTOGRAMS)      \
  X(cache_hist, cache, IOTSAN_CACHE_HISTOGRAMS)         \
  X(parallel_hist, parallel, IOTSAN_PARALLEL_HISTOGRAMS) \
  X(server_hist, server, IOTSAN_SERVER_HISTOGRAMS)      \
  X(registry_hist, registry, IOTSAN_REGISTRY_HISTOGRAMS) \
  X(cluster_hist, cluster, IOTSAN_CLUSTER_HISTOGRAMS)

/// One named histogram in a Registry snapshot ("server.request_duration_us").
struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

class Registry {
 public:
  SearchCounters search;
  PipelineCounters pipeline;
  StoreGauges store;
  PorCounters por;
  CompressCounters compress;
  ParallelCounters parallel;
  CacheCounters cache;
  ServerCounters server;
  FleetRegistryCounters registry;
  ClusterCounters cluster;
  MemoryGauges memory;

  SearchHistograms search_hist;
  CacheHistograms cache_hist;
  ParallelHistograms parallel_hist;
  ServerHistograms server_hist;
  FleetRegistryHistograms registry_hist;
  ClusterHistograms cluster_hist;

  /// All counters and gauges as dotted names ("search.states_explored"),
  /// in a stable order, each tagged counter vs. gauge.
  std::vector<Sample> Snapshot() const;

  /// All histograms as dotted names, in a stable order.
  std::vector<HistogramSample> SnapshotHistograms() const;

  /// {"search": {...}, "pipeline": {...}, "store": {...}, "por": {...},
  ///  "compress": {...}, "parallel": {...}, "cache": {...},
  ///  "server": {...}, "memory": {...}}.
  json::Value ToJson() const;

  void Reset();
};

/// Calls f(group, name, counter, kind) for every counter and gauge of
/// `registry` (const or not), in Snapshot order.
template <typename R, typename F>
void ForEachCounter(R& registry, F&& f) {
#define IOTSAN_VISIT_COUNTER(name, kind) \
  f(group, #name, counters.name, SampleKind::kind);
#define IOTSAN_VISIT_GROUP(member, list)    \
  {                                         \
    const char* group = #member;            \
    auto& counters = registry.member;       \
    list(IOTSAN_VISIT_COUNTER)              \
  }
  IOTSAN_COUNTER_GROUPS(IOTSAN_VISIT_GROUP)
#undef IOTSAN_VISIT_GROUP
#undef IOTSAN_VISIT_COUNTER
}

/// Calls f(group, name, histogram) for every histogram of `registry`,
/// in SnapshotHistograms order.
template <typename R, typename F>
void ForEachHistogram(R& registry, F&& f) {
#define IOTSAN_VISIT_HISTOGRAM(name) f(group, #name, histograms.name);
#define IOTSAN_VISIT_GROUP(member, prefix, list) \
  {                                              \
    const char* group = #prefix;                 \
    auto& histograms = registry.member;          \
    list(IOTSAN_VISIT_HISTOGRAM)                 \
  }
  IOTSAN_HISTOGRAM_GROUPS(IOTSAN_VISIT_GROUP)
#undef IOTSAN_VISIT_GROUP
#undef IOTSAN_VISIT_HISTOGRAM
}

/// The process-global registry; null = telemetry disabled (the one
/// branch instrumented code pays).
Registry* Active();
void SetActive(Registry* registry);

/// The process's peak resident-set size in bytes (getrusage), 0 when
/// unavailable.  Monotonic: the kernel's high-water mark never drops.
std::uint64_t ReadPeakRssBytes();

/// Samples ReadPeakRssBytes() into `registry.memory.peak_rss_bytes`
/// and returns the value — called at check completion and on every
/// metrics/status snapshot so the gauge stays fresh without a poller.
std::uint64_t SamplePeakRss(Registry& registry);

// ---- Phase spans and the JSONL trace sink ------------------------------------

class TraceSink {
 public:
  /// Totals-only sink: spans are timed and aggregated but not written.
  TraceSink();
  /// Additionally appends one JSON object per completed span to `path`.
  /// Throws iotsan::Error when the file cannot be opened.
  explicit TraceSink(const std::string& path);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  struct Total {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
  };
  /// Aggregated span durations by name.
  const std::map<std::string, Total, std::less<>>& totals() const {
    return totals_;
  }

  /// Microseconds since the sink was created (steady clock).
  std::uint64_t NowUs() const;

  void Flush();

 private:
  friend class ScopedSpan;

  void EndSpan(const std::string& name, std::uint64_t start_us,
               std::uint64_t dur_us, int depth, const json::Object* attrs);

  std::chrono::steady_clock::time_point epoch_;
  std::ofstream out_;
  bool to_file_ = false;
  std::atomic<int> open_spans_{0};  // current nesting depth
  // Guards totals_ and the output stream: spans may complete on pool
  // worker threads concurrently.
  std::mutex mutex_;
  std::map<std::string, Total, std::less<>> totals_;
};

/// The process-global trace sink; null = tracing disabled.
TraceSink* ActiveTrace();
void SetActiveTrace(TraceSink* sink);

/// RAII phase span.  Construction records the start time and nesting
/// depth; destruction emits one JSONL line and feeds the per-name
/// totals.  A null sink makes every operation a no-op (the clock is not
/// even read).
class ScopedSpan {
 public:
  ScopedSpan(TraceSink* sink, std::string_view name);
  /// Opens the span on the process-global sink (ActiveTrace()).
  explicit ScopedSpan(std::string_view name)
      : ScopedSpan(ActiveTrace(), name) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach a key/value attribute, emitted with the span's JSONL line.
  void Attr(std::string_view key, std::string_view value);
  void Attr(std::string_view key, std::int64_t value);
  void Attr(std::string_view key, std::uint64_t value);
  void Attr(std::string_view key, double value);

 private:
  json::Object& MutableAttrs();

  TraceSink* sink_;
  std::string name_;
  std::uint64_t start_us_ = 0;
  int depth_ = 0;
  std::unique_ptr<json::Object> attrs_;  // allocated only when used
};

// ---- Check progress ----------------------------------------------------------

/// One progress report of a check: how many of its distinct related
/// sets have finished, and how many states it has explored so far.
struct Progress {
  std::uint64_t groups_total = 0;
  std::uint64_t groups_done = 0;
  std::uint64_t states_explored = 0;
  /// The last finished set's store footprint and search seconds (0
  /// until a set finishes).
  std::uint64_t store_memory_bytes = 0;
  double seconds = 0;
  /// Seconds since the check started.
  double elapsed_seconds = 0;
};

using ProgressCallback = std::function<void(const Progress&)>;

/// One-line human rendering ("progress: 1200 states (600/s), sets 3/118").
std::string FormatProgress(const Progress& progress);

/// The progress of one check, shared by the searches of all its sets.
/// The code that runs the sets owns it (Sanitizer::CheckGroups, or the
/// cluster coordinator).  Under a cadence each search reaches it through
/// CheckOptions::progress and counts its states as it expands them; any
/// other set (a cache hit, a worker's unit, a set searched with no
/// cadence) counts its states when it finishes.  A report goes out after
/// each finished set and, when `every` is set, each time the count of
/// states crosses a multiple of it.  Reports go out one at a time, and
/// their groups_done and states_explored never decrease.
class ProgressCounter {
 public:
  ProgressCounter(std::uint64_t groups_total, std::uint64_t every,
                  ProgressCallback callback);

  /// Counts one state a search of this process expanded.
  void CountState() {
    const std::uint64_t total =
        states_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (every_ != 0 && total % every_ == 0) Report();
  }

  /// Counts one finished distinct set and reports: `states` are the
  /// set's states no search of this process counted (0 for a set
  /// searched here).
  void FinishSet(std::uint64_t states, std::uint64_t store_memory_bytes,
                 double seconds);

 private:
  /// A cadence report.
  void Report();
  /// Fills in the count and elapsed time and calls back; the caller
  /// holds mutex_.
  void Send();

  const std::uint64_t every_;
  const ProgressCallback callback_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> states_{0};
  std::mutex mutex_;  // serializes reports; guards last_
  Progress last_;
};

}  // namespace iotsan::telemetry
