#include "checker/checker.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string_view>
#include <tuple>

#include "checker/collapse.hpp"
#include "checker/state_store.hpp"
#include "model/footprint.hpp"
#include "util/build_info.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::checker {

bool CheckResult::HasViolation(const std::string& property_id) const {
  return Find(property_id) != nullptr;
}

const Violation* CheckResult::Find(const std::string& property_id) const {
  for (const Violation& v : violations) {
    if (v.property_id == property_id) return &v;
  }
  return nullptr;
}

namespace {

void AddBuckets(std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& part) {
  if (into.size() < part.size()) into.resize(part.size(), 0);
  for (std::size_t i = 0; i < part.size(); ++i) into[i] += part[i];
}

}  // namespace

void Accumulate(CheckResult& into, const CheckResult& part) {
  into.states_explored += part.states_explored;
  into.states_matched += part.states_matched;
  into.transitions += part.transitions;
  into.cascade_drains += part.cascade_drains;
  into.completed = into.completed && part.completed;
  into.seconds += part.seconds;
  into.store_fill_ratio =
      std::max(into.store_fill_ratio, part.store_fill_ratio);
  into.est_omission_probability =
      std::max(into.est_omission_probability, part.est_omission_probability);
  into.store_entries += part.store_entries;
  into.store_memory_bytes =
      std::max(into.store_memory_bytes, part.store_memory_bytes);
  into.compress_states_encoded += part.compress_states_encoded;
  into.compress_pool_entries += part.compress_pool_entries;
  into.compress_pool_bytes =
      std::max(into.compress_pool_bytes, part.compress_pool_bytes);
  into.compress_lookups += part.compress_lookups;
  into.compress_hits += part.compress_hits;
  into.store_bytes_per_state =
      std::max(into.store_bytes_per_state, part.store_bytes_per_state);
  AddBuckets(into.depth_histogram, part.depth_histogram);
  into.jobs = std::max(into.jobs, part.jobs);
}

std::string_view PropertyKindName(props::PropertyKind kind) {
  switch (kind) {
    case props::PropertyKind::kInvariant: return "invariant";
    case props::PropertyKind::kNoConflict: return "no_conflict";
    case props::PropertyKind::kNoRepeat: return "no_repeat";
    case props::PropertyKind::kNoNetworkLeak: return "no_network_leak";
    case props::PropertyKind::kSmsRecipient: return "sms_recipient";
    case props::PropertyKind::kNoSensitiveCmd: return "no_sensitive_cmd";
    case props::PropertyKind::kNoFakeEvent: return "no_fake_event";
    case props::PropertyKind::kRobustness: return "robustness";
  }
  return "invariant";
}

props::PropertyKind PropertyKindFromName(std::string_view name) {
  for (props::PropertyKind kind :
       {props::PropertyKind::kInvariant, props::PropertyKind::kNoConflict,
        props::PropertyKind::kNoRepeat, props::PropertyKind::kNoNetworkLeak,
        props::PropertyKind::kSmsRecipient,
        props::PropertyKind::kNoSensitiveCmd,
        props::PropertyKind::kNoFakeEvent,
        props::PropertyKind::kRobustness}) {
    if (name == PropertyKindName(kind)) return kind;
  }
  return props::PropertyKind::kInvariant;
}

json::Value ViolationToJson(const Violation& violation) {
  json::Object obj;
  obj["property_id"] = violation.property_id;
  obj["category"] = violation.category;
  obj["description"] = violation.description;
  obj["kind"] = std::string(PropertyKindName(violation.kind));
  json::Array steps;
  for (const TraceStep& step : violation.steps) steps.push_back(ToJson(step));
  obj["steps"] = std::move(steps);
  obj["detail"] = violation.detail;
  json::Array apps;
  for (const std::string& app : violation.apps) apps.push_back(app);
  obj["apps"] = std::move(apps);
  json::Array model_apps;
  for (const std::string& app : violation.model_apps) model_apps.push_back(app);
  obj["model_apps"] = std::move(model_apps);
  obj["failure"] = violation.failure;
  obj["depth"] = violation.depth;
  obj["occurrences"] = static_cast<std::int64_t>(violation.occurrences);
  obj["replay_verified"] = violation.replay_verified;
  return obj;
}

Violation ViolationFromJson(const json::Value& value) {
  Violation violation;
  violation.property_id = value.GetString("property_id");
  violation.category = value.GetString("category");
  violation.description = value.GetString("description");
  violation.kind = PropertyKindFromName(value.GetString("kind", "invariant"));
  if (value.Has("steps")) {
    for (const json::Value& step : value.At("steps").AsArray()) {
      violation.steps.push_back(TraceStepFromJson(step));
    }
  }
  violation.detail = value.GetString("detail");
  if (value.Has("apps")) {
    for (const json::Value& app : value.At("apps").AsArray()) {
      violation.apps.push_back(app.AsString());
    }
  }
  if (value.Has("model_apps")) {
    for (const json::Value& app : value.At("model_apps").AsArray()) {
      violation.model_apps.push_back(app.AsString());
    }
  }
  violation.failure = value.GetString("failure");
  violation.depth = value.GetInteger<int>("depth");
  violation.occurrences = value.GetInteger<std::uint64_t>("occurrences", 1);
  violation.replay_verified = value.GetBool("replay_verified");
  return violation;
}

json::Value CheckResultToJson(const CheckResult& result) {
  json::Object res;
  json::Array violations;
  for (const Violation& v : result.violations) {
    violations.push_back(ViolationToJson(v));
  }
  res["violations"] = std::move(violations);
  res["states_explored"] = static_cast<std::int64_t>(result.states_explored);
  res["states_matched"] = static_cast<std::int64_t>(result.states_matched);
  res["transitions"] = static_cast<std::int64_t>(result.transitions);
  res["cascade_drains"] = static_cast<std::int64_t>(result.cascade_drains);
  res["completed"] = result.completed;
  // The original compute time: a warm cache hit or a remote unit reports
  // the seconds the search measured, so aggregated reports stay
  // byte-identical across cold, warm and cluster runs.
  res["seconds"] = result.seconds;
  res["store_fill_ratio"] = result.store_fill_ratio;
  res["est_omission_probability"] = result.est_omission_probability;
  res["store_entries"] = static_cast<std::int64_t>(result.store_entries);
  res["store_memory_bytes"] =
      static_cast<std::int64_t>(result.store_memory_bytes);
  res["store_bytes_per_state"] = result.store_bytes_per_state;
  res["compress_pool_entries"] =
      static_cast<std::int64_t>(result.compress_pool_entries);
  res["compress_pool_bytes"] =
      static_cast<std::int64_t>(result.compress_pool_bytes);
  res["compress_lookups"] = static_cast<std::int64_t>(result.compress_lookups);
  res["compress_hits"] = static_cast<std::int64_t>(result.compress_hits);
  json::Array depths;
  for (std::uint64_t count : result.depth_histogram) {
    depths.push_back(static_cast<std::int64_t>(count));
  }
  res["depth_histogram"] = std::move(depths);
  return res;
}

CheckResult CheckResultFromJson(const json::Value& doc) {
  CheckResult result;
  for (const json::Value& v : doc.At("violations").AsArray()) {
    result.violations.push_back(ViolationFromJson(v));
  }
  using U64 = std::uint64_t;
  result.states_explored = doc.GetInteger<U64>("states_explored");
  result.states_matched = doc.GetInteger<U64>("states_matched");
  result.transitions = doc.GetInteger<U64>("transitions");
  result.cascade_drains = doc.GetInteger<U64>("cascade_drains");
  result.completed = doc.GetBool("completed", true);
  result.seconds = doc.GetNumber("seconds");
  result.store_fill_ratio = doc.GetNumber("store_fill_ratio");
  result.est_omission_probability =
      doc.GetNumber("est_omission_probability");
  result.store_entries = doc.GetInteger<U64>("store_entries");
  result.store_memory_bytes = doc.GetInteger<U64>("store_memory_bytes");
  // COLLAPSE diagnostics and the depth histogram arrived after the cache
  // schema froze; entries written before them read back zeroed.
  result.store_bytes_per_state = doc.GetNumber("store_bytes_per_state");
  result.compress_pool_entries = doc.GetInteger<U64>("compress_pool_entries");
  result.compress_pool_bytes = doc.GetInteger<U64>("compress_pool_bytes");
  result.compress_lookups = doc.GetInteger<U64>("compress_lookups");
  result.compress_hits = doc.GetInteger<U64>("compress_hits");
  if (doc.Has("depth_histogram")) {
    for (const json::Value& count : doc.At("depth_histogram").AsArray()) {
      result.depth_histogram.push_back(count.AsInteger<U64>());
    }
  }
  return result;
}

namespace {

using Clock = std::chrono::steady_clock;

// The once-per-run latch for the bitstate saturation warning: re-armed
// by ResetSaturationWarning() (the CLI does so per command), so a run
// checking dozens of related sets warns once instead of once per check.
// An atomic_flag because parallel workers (or parallel related-set
// checks) may finish saturated checks concurrently: exactly one of them
// wins the test_and_set and prints.
std::atomic_flag g_saturation_warned = ATOMIC_FLAG_INIT;

/// One external event along a search path: the event, the failure
/// scenario, and the interleaving choice, resolved against a concrete
/// model.  The DFS keeps its path as these triples (Spin's .trail);
/// guided replays follow a recorded list of them.
struct GuideStep {
  model::ExternalEvent event;
  model::FailureScenario failure;
  int outcome_index = 0;
};

using GuidePath = std::vector<GuideStep>;

/// The TraceStep::kind name of an external-event kind.
std::string_view EventKindName(model::ExternalEventSpec::Kind kind) {
  switch (kind) {
    case model::ExternalEventSpec::Kind::kSensor: return "sensor";
    case model::ExternalEventSpec::Kind::kAppTouch: return "app_touch";
    case model::ExternalEventSpec::Kind::kTimerTick: return "timer";
    case model::ExternalEventSpec::Kind::kUserModeChange: return "user_mode";
  }
  return "sensor";
}

/// Resolves an artifact's name-based event coordinates to model indices.
/// Throws iotsan::Error when the model does not match the recording.
GuidePath ResolveSteps(const model::SystemModel& model,
                       const std::vector<TraceStep>& steps) {
  GuidePath guide;
  for (const TraceStep& step : steps) {
    GuideStep g;
    g.outcome_index = step.outcome_index;
    g.failure.sensor_offline = step.sensor_offline;
    g.failure.actuator_offline = step.actuator_offline;
    g.failure.comm_fail = step.comm_fail;
    if (step.kind == "sensor") {
      g.event.kind = model::ExternalEventSpec::Kind::kSensor;
      g.event.device = model.DeviceIndex(step.device);
      if (g.event.device < 0) {
        throw Error("replay: device '" + step.device +
                    "' is not in the model");
      }
      const devices::Device& device = model.devices()[g.event.device];
      g.event.attribute = device.AttributeIndex(step.attribute);
      if (g.event.attribute < 0) {
        throw Error("replay: device '" + step.device +
                    "' has no attribute '" + step.attribute + "'");
      }
      const devices::AttributeSpec& attr =
          *device.attributes()[g.event.attribute];
      g.event.value = -1;
      for (int v = 0; v < attr.domain_size(); ++v) {
        if (attr.ValueName(v) == step.value) {
          g.event.value = v;
          break;
        }
      }
      if (g.event.value < 0) {
        throw Error("replay: attribute '" + step.attribute +
                    "' has no value '" + step.value + "'");
      }
    } else if (step.kind == "app_touch") {
      g.event.kind = model::ExternalEventSpec::Kind::kAppTouch;
      g.event.app = -1;
      for (std::size_t a = 0; a < model.apps().size(); ++a) {
        if (model.apps()[a].config.label == step.app) {
          g.event.app = static_cast<int>(a);
          break;
        }
      }
      if (g.event.app < 0) {
        throw Error("replay: app '" + step.app + "' is not in the model");
      }
    } else if (step.kind == "timer") {
      g.event.kind = model::ExternalEventSpec::Kind::kTimerTick;
    } else if (step.kind == "user_mode") {
      g.event.kind = model::ExternalEventSpec::Kind::kUserModeChange;
      g.event.value = -1;
      for (std::size_t m = 0; m < model.modes().size(); ++m) {
        if (model.modes()[m] == step.value) {
          g.event.value = static_cast<int>(m);
          break;
        }
      }
      if (g.event.value < 0) {
        throw Error("replay: mode '" + step.value + "' is not in the model");
      }
    } else {
      throw Error("replay: unknown event kind '" + step.kind + "'");
    }
    guide.push_back(std::move(g));
  }
  return guide;
}

// ---- Canonical counter-example selection -------------------------------------
//
// A property can fire on many edges of the search.  Which edge a DFS
// reaches first depends on exploration order, and under parallel search
// exploration order depends on scheduling — so "first found" would make
// reports vary run to run.  Instead every path keeps the *minimal*
// counter-example: fewest external events, ties broken by the
// identifying event coordinates.  Only the coordinates that determine
// the re-execution (kind/device/attribute/value/app, failure flags,
// interleaving index) participate: they fix the entire step content, so
// comparing the rest would be redundant.

/// The TraceStep coordinates of a search path's step, read from the
/// model: what the compact step carries, and what canonical-min
/// compares while the search runs.
struct StepCoordinates {
  std::string_view kind;
  std::string_view device;     // sensor
  std::string_view attribute;  // sensor
  std::string value;           // sensor value / target mode
  std::string_view app;        // app touch
  model::FailureScenario failure;
  int outcome_index = 0;

  StepCoordinates(const model::SystemModel& model, const GuideStep& s)
      : kind(EventKindName(s.event.kind)),
        failure(s.failure),
        outcome_index(s.outcome_index) {
    const model::ExternalEvent& e = s.event;
    switch (e.kind) {
      case model::ExternalEventSpec::Kind::kSensor: {
        const devices::Device& d = model.devices()[e.device];
        const devices::AttributeSpec& spec = *d.attributes()[e.attribute];
        device = d.id();
        attribute = spec.name;
        value = spec.ValueName(e.value);
        break;
      }
      case model::ExternalEventSpec::Kind::kAppTouch:
        app = model.apps()[e.app].config.label;
        break;
      case model::ExternalEventSpec::Kind::kTimerTick:
        break;
      case model::ExternalEventSpec::Kind::kUserModeChange:
        value = model.modes()[e.value];
        break;
    }
  }

  auto Tie() const {
    return std::tie(kind, device, attribute, value, app,
                    failure.sensor_offline, failure.actuator_offline,
                    failure.comm_fail, outcome_index);
  }

  friend auto operator<=>(const StepCoordinates& a,
                          const StepCoordinates& b) {
    return a.Tie() <=> b.Tie();
  }
};

/// Fewest events first, then the steps' StepCoordinates in `model`, then
/// the diagnosis.
bool PathLess(const model::SystemModel& model, const GuidePath& a,
              const std::string& a_detail, const GuidePath& b,
              const std::string& b_detail) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto order =
        StepCoordinates(model, a[i]) <=> StepCoordinates(model, b[i]);
    if (order != 0) return order < 0;
  }
  return a_detail < b_detail;
}

/// Adds `label` to a violation's charged apps unless it is there.
void AddApp(std::vector<std::string>& apps, const std::string& label) {
  if (std::find(apps.begin(), apps.end(), label) == apps.end()) {
    apps.push_back(label);
  }
}

/// Merges violation `v` of the same property, whose counter-example is
/// `path`, into `existing`, whose counter-example is `existing_path`:
/// occurrences add, charged apps union, and the canonically smaller path
/// wins with its diagnosis, depth and failure.
void MergeInto(const model::SystemModel& model, Violation& existing,
               GuidePath& existing_path, Violation& v, GuidePath& path) {
  existing.occurrences += v.occurrences;
  for (const std::string& app : v.apps) AddApp(existing.apps, app);
  if (PathLess(model, path, v.detail, existing_path, existing.detail)) {
    existing_path = std::move(path);
    existing.detail = std::move(v.detail);
    existing.depth = v.depth;
    existing.failure = std::move(v.failure);
  }
}

/// Final report canonicalization of a search run: violations ordered by
/// property id, charged apps ordered lexicographically.
void CanonicalizeViolations(std::vector<Violation>& violations) {
  for (Violation& v : violations) std::sort(v.apps.begin(), v.apps.end());
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.property_id < b.property_id;
            });
}

// ---- Run-finalization helpers ------------------------------------------------

void NoteStoreDiagnostics(CheckResult& result, const StateStore& store,
                          const CollapseCodec* codec) {
  result.store_entries = store.size();
  result.store_memory_bytes = store.memory_bytes();
  result.store_fill_ratio = store.FillRatio();
  result.est_omission_probability = store.EstOmissionProbability();
  if (codec != nullptr) {
    result.compress_states_encoded = codec->states_encoded();
    result.compress_pool_entries = codec->pool_entries();
    result.compress_pool_bytes = codec->pool_bytes();
    result.compress_lookups = codec->lookups();
    result.compress_hits = codec->hits();
  }
  if (result.store_entries > 0) {
    result.store_bytes_per_state =
        static_cast<double>(result.store_memory_bytes +
                            result.compress_pool_bytes) /
        static_cast<double>(result.store_entries);
  }
}

void WarnIfSaturated(const CheckResult& result, const CheckOptions& options) {
  if (options.store != StoreKind::kBitstate ||
      result.store_fill_ratio <= 0.5) {
    return;
  }
  if (auto* t = telemetry::Active()) ++t->store.saturation_warnings;
  // Spin's rule of thumb: above 50% occupancy BITSTATE coverage is
  // unreliable — a saturated bit field silently under-reports
  // violations.  Emitted once per run (ResetSaturationWarning re-arms),
  // mirrored per check in store.saturation_warnings.
  if (!g_saturation_warned.test_and_set()) {
    util::LogWarn(
        "checker",
        "bitstate store saturated; coverage is unreliable, increase "
        "bitstate_bits",
        {{"fill_ratio", result.store_fill_ratio},
         {"est_omission_probability", result.est_omission_probability},
         {"store_bytes", result.store_memory_bytes}});
  }
}

void TickFinishTelemetry(const CheckResult& result,
                         const CheckOptions& options) {
  auto* t = telemetry::Active();
  if (t == nullptr) return;
  t->search.states_explored += result.states_explored;
  t->search.states_matched += result.states_matched;
  t->search.transitions += result.transitions;
  t->search.cascade_drains += result.cascade_drains;
  t->search.violations_recorded += result.violations.size();
  if (!result.completed) ++t->search.budget_stops;
  ++t->pipeline.checks_run;
  t->store.entries = result.store_entries;
  t->store.memory_bytes = result.store_memory_bytes;
  t->store.fill_permille =
      static_cast<std::uint64_t>(result.store_fill_ratio * 1000.0);
  t->store.omission_ppm =
      static_cast<std::uint64_t>(result.est_omission_probability * 1e6);
  t->store.bytes_per_state =
      static_cast<std::uint64_t>(result.store_bytes_per_state);
  if (options.state_compression) {
    t->compress.states_encoded += result.compress_states_encoded;
    t->compress.intern_lookups += result.compress_lookups;
    t->compress.intern_hits += result.compress_hits;
    t->compress.pool_entries = result.compress_pool_entries;
    t->compress.pool_bytes = result.compress_pool_bytes;
  }
  // Memory accounting: the store footprint lands in the gauge for its
  // kind, and the OS high-water mark is refreshed while it is still
  // inflated by the live store (sampling later would under-report).
  if (options.store == StoreKind::kBitstate) {
    t->memory.store_bitstate_bytes = result.store_memory_bytes;
  } else {
    t->memory.store_exhaustive_bytes = result.store_memory_bytes;
  }
  telemetry::SamplePeakRss(*t);
}

/// The POR oracle of one run, shared by all its workers (it is
/// thread-safe).  Null when POR is off or scheduling is sequential (one
/// dispatch order — nothing to reduce).
std::unique_ptr<model::FootprintIndex> MakeFootprints(
    const model::SystemModel& model, const CheckOptions& options) {
  if (!options.por || options.scheduling != model::Scheduling::kConcurrent) {
    return nullptr;
  }
  return std::make_unique<model::FootprintIndex>(model);
}

// ---- Shared state of one search run ------------------------------------------

/// Crossbar between the branch workers of one run: the visited-state
/// store, the stop flag, and the run's counters, which budgets read live
/// and RunSearch reads once after the join.  Everything per-branch (path
/// context, violations) stays worker-local in each branch's Found and is
/// folded deterministically afterwards.
struct SharedSearch {
  SharedSearch(const model::SystemModel& model, const CheckOptions& options)
      : options(options),
        depth_histogram(
            static_cast<std::size_t>(std::max(options.max_events, 0)) + 1) {
    for (const props::Property& property : model.active_properties()) {
      const props::Property*& slot =
          monitors[static_cast<std::size_t>(property.kind)];
      if (slot == nullptr) slot = &property;
    }
  }

  const CheckOptions& options;
  /// The first active property of each kind, indexed by PropertyKind,
  /// null when none is active: what each monitor records its violations
  /// against.
  std::array<const props::Property*,
             static_cast<std::size_t>(props::PropertyKind::kRobustness) + 1>
      monitors{};
  StateStore* store = nullptr;
  /// POR oracle / COLLAPSE codec (null when the feature is off); both are
  /// thread-safe, so every branch worker uses the same instance.
  const model::FootprintIndex* footprints = nullptr;
  const CollapseCodec* codec = nullptr;
  const Clock::time_point start = Clock::now();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> states_explored{0};
  std::atomic<std::uint64_t> states_matched{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> cascade_drains{0};
  std::vector<std::atomic<std::uint64_t>> depth_histogram;

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
};

/// What one branch of a run found: its violations with their canonical
/// paths.  RunSearch folds every branch's Found, then turns each
/// surviving path into compact TraceSteps.
struct Found {
  std::vector<Violation> violations;
  std::vector<GuidePath> paths;  // paths[i] is violations[i]'s
};

/// One worker's bounded DFS against a run's shared store, or a guided
/// replay of one recorded path (Follow).
class Search {
 public:
  Search(const model::SystemModel& model, SharedSearch& run)
      : model_(model),
        options_(run.options),
        run_(run),
        engine_(model, run.footprints) {
    cancel_ = [this] { return BudgetExceeded(); };
  }

  /// Stores the initial state's key and counts the state through the
  /// same expansion path as every other state.
  Found Start(const model::SystemState& initial) {
    EncodeStateKey(initial);
    run_.store->TestAndInsert(key_scratch_);
    Enter(0);
    return std::move(found_);
  }

  /// Explores one root (event × failure) branch.
  Found RunBranch(const model::SystemState& initial,
                  const model::ExternalEvent& event,
                  const model::FailureScenario& failure) {
    if (!BudgetExceeded()) Step(initial, event, failure, 0);
    return std::move(found_);
  }

  /// Guided replay, Spin's guided simulation of a .trail file: follows
  /// the recorded path step by step (no enumeration, no store — a prefix
  /// may revisit states the store would prune), through the same
  /// monitors and invariants as the search.
  Found Follow(const GuidePath& guide) {
    model::SystemState state = model_.MakeInitialState();
    for (std::size_t depth = 0; depth < guide.size(); ++depth) {
      const GuideStep& g = guide[depth];
      std::vector<model::StepOutcome> outcomes =
          engine_.Apply(state, g.event, g.failure, options_.scheduling);
      if (outcomes.empty()) break;
      const int index = std::min(g.outcome_index,
                                 static_cast<int>(outcomes.size()) - 1);
      model::StepOutcome& outcome = outcomes[static_cast<std::size_t>(index)];
      run_.transitions.fetch_add(1, std::memory_order_relaxed);
      Observe(g.event, g.failure, outcome, static_cast<int>(depth), index);
      state = std::move(outcome.state);
    }
    return std::move(found_);
  }

 private:
  const model::SystemModel& model_;
  const CheckOptions& options_;
  SharedSearch& run_;
  model::CascadeEngine engine_;
  // Per-worker scratch buffers: store keys are built in place so the hot
  // loop performs no per-state allocations once capacity settles.
  std::vector<std::uint8_t> key_scratch_;
  std::vector<std::uint8_t> component_scratch_;
  Found found_;
  bool stopped_ = false;
  // Handed to the cascade engine so budgets are honored between drains.
  model::CancelFn cancel_;

  // Current DFS path context: the compact steps, and causality data for
  // violation charging — which app actuated which device, and which apps
  // changed the location mode, along the path.
  GuidePath path_;
  std::vector<std::pair<int, int>> path_actuations_;
  std::vector<int> path_mode_setters_;

  /// Budgets are global across workers: they compare the shared totals,
  /// and a stop is broadcast so every branch winds down together.
  bool BudgetExceeded() {
    if (stopped_) return true;
    const bool over =
        run_.stop.load(std::memory_order_relaxed) ||
        (options_.interrupt != nullptr &&
         options_.interrupt->load(std::memory_order_relaxed)) ||
        (options_.max_states != 0 &&
         run_.states_explored.load(std::memory_order_relaxed) >=
             options_.max_states) ||
        (options_.time_budget_seconds > 0 &&
         run_.Elapsed() > options_.time_budget_seconds);
    if (over) Stop();
    return over;
  }

  void Stop() {
    stopped_ = true;
    run_.stop.store(true, std::memory_order_relaxed);
  }

  /// Rebuilds key_scratch_ with `state`'s store key — COLLAPSE-encoded
  /// when compression is on, the plain serialization otherwise.  The
  /// depth byte, when enabled, is appended by the caller.
  void EncodeStateKey(const model::SystemState& state) {
    key_scratch_.clear();
    if (run_.codec != nullptr) {
      run_.codec->Encode(state, key_scratch_, component_scratch_);
    } else {
      state.SerializeTo(key_scratch_);
    }
  }

  /// Counts a state expanded at `depth`, on the run and on the check's
  /// progress counter.  False when a budget stopped the run or the event
  /// bound is reached.
  bool Enter(int depth) {
    if (BudgetExceeded()) return false;
    run_.depth_histogram[static_cast<std::size_t>(depth)].fetch_add(
        1, std::memory_order_relaxed);
    run_.states_explored.fetch_add(1, std::memory_order_relaxed);
    if (options_.progress != nullptr) options_.progress->CountState();
    return depth < options_.max_events;
  }

  void RecordViolation(const props::Property& property, int depth,
                       const model::FailureScenario& failure,
                       const std::string& detail,
                       const std::set<int>& charged_apps) {
    std::vector<Violation>& violations = found_.violations;
    for (std::size_t v = 0; v < violations.size(); ++v) {
      Violation& existing = violations[v];
      if (existing.property_id == property.id) {
        // The merge MergeInto applies, without building a Violation per
        // re-violation: accumulate every charged app — attribution (§9)
        // needs all apps that can drive the system into this bad state —
        // and keep the *canonical* (minimal) counter-example rather than
        // the first found, so the trace does not depend on exploration
        // order.
        ++existing.occurrences;
        for (int app : charged_apps) {
          AddApp(existing.apps, model_.apps()[app].config.label);
        }
        if (PathLess(model_, path_, detail, found_.paths[v],
                     existing.detail)) {
          found_.paths[v] = path_;
          existing.detail = detail;
          existing.depth = depth;
          existing.failure = failure.Any() ? failure.Label() : "";
        }
        return;
      }
    }
    Violation violation;
    violation.property_id = property.id;
    violation.category = property.category;
    violation.description = property.description;
    violation.kind = property.kind;
    violation.detail = detail;
    for (int app : charged_apps) {
      violation.apps.push_back(model_.apps()[app].config.label);
    }
    for (const model::InstalledApp& app : model_.apps()) {
      violation.model_apps.push_back(app.config.label);
    }
    violation.failure = failure.Any() ? failure.Label() : "";
    violation.depth = depth;
    violations.push_back(std::move(violation));
    found_.paths.push_back(path_);
    if (options_.stop_at_first_violation) Stop();
  }

  /// Apps responsible for an invariant violation: those that actuated a
  /// device carrying one of the property's roles along the path, plus —
  /// when the property reads the location mode — the apps that changed
  /// the mode.
  std::set<int> ChargedApps(const model::CompiledInvariant& invariant) const {
    std::set<int> charged;
    for (const auto& [app, device] : path_actuations_) {
      if (invariant.ReferencesDevice(device)) charged.insert(app);
    }
    if (invariant.references_mode()) {
      charged.insert(path_mode_setters_.begin(), path_mode_setters_.end());
    }
    return charged;
  }

  void CheckInvariants(const model::SystemState& state, int depth,
                       const model::FailureScenario& failure) {
    for (const model::CompiledInvariant& invariant : model_.invariants()) {
      if (stopped_) return;
      if (auto* t = telemetry::Active()) ++t->search.invariant_evals;
      if (invariant.Holds(state)) continue;
      RecordViolation(model_.active_properties()[invariant.property_index()],
                      depth, failure, invariant.detail(),
                      ChargedApps(invariant));
    }
  }

  void RunMonitors(const model::CascadeLog& log, int depth,
                   const model::FailureScenario& failure) {
    if (stopped_) return;
    auto monitor = [this](props::PropertyKind kind) {
      return run_.monitors[static_cast<std::size_t>(kind)];
    };

    // Conflicting / repeated commands (Algorithm 1, line 16).  Each
    // cascade records at most one violation per monitor kind (the first
    // offending pair in command order) but every offending cascade
    // records — unlike a whole-run short-circuit, this keeps occurrence
    // counts a pure function of the explored-edge set, and therefore
    // identical across serial and parallel schedules.
    if (const props::Property* property =
            monitor(props::PropertyKind::kNoConflict)) {
      bool recorded = false;
      for (std::size_t i = 0; i < log.commands.size() && !recorded; ++i) {
        for (std::size_t j = i + 1; j < log.commands.size(); ++j) {
          const model::CommandRecord& a = log.commands[i];
          const model::CommandRecord& b = log.commands[j];
          if (a.device != b.device) continue;
          const bool conflicting =
              std::find(a.spec->conflicts_with.begin(),
                        a.spec->conflicts_with.end(),
                        b.spec->name) != a.spec->conflicts_with.end();
          if (!conflicting) continue;
          RecordViolation(*property, depth, failure,
                          "conflicting commands on " +
                              model_.devices()[a.device].id() + ": " +
                              a.spec->name + " vs " + b.spec->name,
                          {a.app, b.app});
          recorded = true;
          break;
        }
      }
    }
    if (const props::Property* property =
            monitor(props::PropertyKind::kNoRepeat)) {
      bool recorded = false;
      for (std::size_t i = 0; i < log.commands.size() && !recorded; ++i) {
        for (std::size_t j = i + 1; j < log.commands.size(); ++j) {
          const model::CommandRecord& a = log.commands[i];
          const model::CommandRecord& b = log.commands[j];
          if (a.device != b.device || a.spec->name != b.spec->name ||
              a.value_index != b.value_index) {
            continue;
          }
          RecordViolation(*property, depth, failure,
                          "repeated command on " +
                              model_.devices()[a.device].id() + ": " +
                              a.spec->name + " received twice",
                          {a.app, b.app});
          recorded = true;
          break;
        }
      }
    }

    for (const model::ApiCallRecord& api : log.api_calls) {
      if (stopped_) return;
      switch (api.kind) {
        case model::ApiCallRecord::Kind::kHttp:
          if (const props::Property* property =
                  monitor(props::PropertyKind::kNoNetworkLeak);
              property != nullptr &&
              !model_.deployment().allow_network_interfaces) {
            RecordViolation(*property, depth, failure,
                            "network interface used: " + api.detail,
                            {api.app});
          }
          break;
        case model::ApiCallRecord::Kind::kSms:
          if (const props::Property* property =
                  monitor(props::PropertyKind::kSmsRecipient);
              property != nullptr && api.recipient_mismatch) {
            RecordViolation(*property, depth, failure,
                            "SMS recipient '" + api.detail +
                                "' does not match the configured contact",
                            {api.app});
          }
          break;
        case model::ApiCallRecord::Kind::kUnsubscribe:
          if (const props::Property* property =
                  monitor(props::PropertyKind::kNoSensitiveCmd)) {
            RecordViolation(*property, depth, failure,
                            "security-sensitive command: unsubscribe()",
                            {api.app});
          }
          break;
        case model::ApiCallRecord::Kind::kFakeEvent:
          if (const props::Property* property =
                  monitor(props::PropertyKind::kNoFakeEvent)) {
            RecordViolation(*property, depth, failure,
                            "fake event injected: " + api.detail, {api.app});
          }
          break;
        case model::ApiCallRecord::Kind::kPush:
          break;
      }
    }

    // Robustness: a command was lost to a failure and the user was never
    // notified (§8's robustness property).
    const props::Property* robustness =
        monitor(props::PropertyKind::kRobustness);
    if (robustness != nullptr && failure.Any() &&
        log.failed_deliveries > 0 && !log.user_notified) {
      std::set<int> losers;
      for (const model::CommandRecord& cmd : log.commands) {
        if (!cmd.delivered) losers.insert(cmd.app);
      }
      RecordViolation(*robustness, depth, failure,
                      std::to_string(log.failed_deliveries) +
                          " command(s) lost to " + failure.Label() +
                          " with no user notification",
                      losers);
    }
  }

  /// Extends the path context with one drained cascade and runs the
  /// monitors and invariants on it.  The path context is restored by
  /// ProcessOutcome; a guided replay keeps extending it.
  void Observe(const model::ExternalEvent& event,
               const model::FailureScenario& failure,
               const model::StepOutcome& outcome, int depth,
               int outcome_index) {
    path_.push_back({event, failure, outcome_index});
    path_actuations_.insert(path_actuations_.end(),
                            outcome.log.actuations.begin(),
                            outcome.log.actuations.end());
    path_mode_setters_.insert(path_mode_setters_.end(),
                              outcome.log.mode_setters.begin(),
                              outcome.log.mode_setters.end());
    RunMonitors(outcome.log, depth + 1, failure);
    CheckInvariants(outcome.state, depth + 1, failure);
  }

  /// Processes one drained cascade outcome: observes it, then prunes it
  /// through the store or recurses into it.
  void ProcessOutcome(const model::ExternalEvent& event,
                      const model::FailureScenario& failure,
                      const model::StepOutcome& outcome, int depth,
                      int outcome_index) {
    run_.transitions.fetch_add(1, std::memory_order_relaxed);
    const std::size_t actuation_mark = path_actuations_.size();
    const std::size_t mode_mark = path_mode_setters_.size();
    Observe(event, failure, outcome, depth, outcome_index);

    EncodeStateKey(outcome.state);
    if (options_.include_depth_in_state) {
      key_scratch_.push_back(static_cast<std::uint8_t>(depth + 1));
    }
    if (run_.store->TestAndInsert(key_scratch_)) {
      run_.states_matched.fetch_add(1, std::memory_order_relaxed);
    } else {
      Explore(outcome.state, depth + 1);
    }

    path_.pop_back();
    path_actuations_.resize(actuation_mark);
    path_mode_setters_.resize(mode_mark);
  }

  /// Applies one (event × failure) at `state` and processes each drained
  /// outcome.
  void Step(const model::SystemState& state, const model::ExternalEvent& event,
            const model::FailureScenario& failure, int depth) {
    std::vector<model::StepOutcome> outcomes =
        engine_.Apply(state, event, failure, options_.scheduling, cancel_);
    run_.cascade_drains.fetch_add(outcomes.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (BudgetExceeded()) return;
      ProcessOutcome(event, failure, outcomes[i], depth, static_cast<int>(i));
    }
  }

  void Explore(const model::SystemState& state, int depth) {
    if (!Enter(depth)) return;
    const auto& scenarios = options_.model_failures
                                ? model::FailureScenario::AllScenarios()
                                : model::FailureScenario::NoFailure();
    for (const model::ExternalEvent& event : engine_.EnabledEvents(state)) {
      for (const model::FailureScenario& failure : scenarios) {
        if (BudgetExceeded()) return;
        Step(state, event, failure, depth);
      }
    }
  }
};

/// The compact form of one search step: the event coordinates by stable
/// names, the failure flags and the interleaving index — what canonical
/// selection compares and what Render resolves back to model indices.
TraceStep CompactStep(const model::SystemModel& model, const GuideStep& g) {
  const StepCoordinates at(model, g);
  TraceStep step;
  step.kind = at.kind;
  step.device = at.device;
  step.attribute = at.attribute;
  step.value = at.value;
  step.app = at.app;
  step.sensor_offline = g.failure.sensor_offline;
  step.actuator_offline = g.failure.actuator_offline;
  step.comm_fail = g.failure.comm_fail;
  step.outcome_index = g.outcome_index;
  return step;
}

/// Builds the structured record of one external-event step: the compact
/// coordinates plus everything observed while the cascade drained.
TraceStep MakeStep(const model::SystemModel& model,
                   const model::SystemState& before, const GuideStep& g,
                   const model::StepOutcome& outcome, int depth) {
  TraceStep step = CompactStep(model, g);
  step.index = depth + 1;
  step.sim_time_ms = (depth + 1) * 1000;
  step.description = g.event.Describe(model);
  for (const model::HandlerDispatch& d : outcome.log.dispatches) {
    step.dispatches.push_back({model.apps()[d.app].config.label, d.handler});
  }
  for (const model::CommandRecord& c : outcome.log.commands) {
    TraceCommand command;
    command.app = model.apps()[c.app].config.label;
    if (c.device >= 0) command.device = model.devices()[c.device].id();
    command.command = c.spec->name;
    if (c.device >= 0 && c.value_index >= 0) {
      const devices::Device& device = model.devices()[c.device];
      const int attr = device.AttributeIndex(c.spec->attribute);
      if (attr >= 0) {
        command.value = device.attributes()[attr]->ValueName(c.value_index);
      }
    }
    command.delivered = c.delivered;
    step.commands.push_back(std::move(command));
  }
  step.deltas = DiffStates(model, before, outcome.state);
  step.notes = outcome.log.trace;
  step.failed_sends = outcome.log.failed_deliveries;
  step.user_notified = outcome.log.user_notified;
  step.queue_peak = outcome.log.max_queue_depth;
  step.truncated = outcome.log.truncated;
  return step;
}

/// Folds one branch's violations into the run's total: each joins its
/// property's entry through MergeInto, comparing compact paths by their
/// StepCoordinates — the same merge the search applies on each
/// re-violation.
void Fold(const model::SystemModel& model, Found& total, Found branch) {
  for (std::size_t v = 0; v < branch.violations.size(); ++v) {
    Violation& violation = branch.violations[v];
    std::size_t e = 0;
    while (e < total.violations.size() &&
           total.violations[e].property_id != violation.property_id) {
      ++e;
    }
    if (e == total.violations.size()) {
      total.violations.push_back(std::move(violation));
      total.paths.push_back(std::move(branch.paths[v]));
    } else {
      MergeInto(model, total.violations[e], total.paths[e], violation,
                branch.paths[v]);
    }
  }
}

// ---- Running a search --------------------------------------------------------
//
// Every free search runs here.  The root-level (external event × failure
// scenario) branches of the permutation DFS are explored against one
// visited-state store.  On one lane (jobs = 1) they run in enumeration
// order on the calling thread, which is exactly the serial DFS; no pool
// is created and no parallel.* counter ticks.  With more lanes they fan
// out over a work-stealing pool and the store prunes the frontier
// globally.  Determinism: with the exhaustive store every reachable
// (state, depth) pair is inserted exactly once, so the multiset of
// explored edges — and with it the violation set, occurrence counts,
// aggregate counters, and depth histogram — is independent of
// scheduling.  The counters are read from the shared totals after the
// join; branches' violations are folded in enumeration order, and each
// surviving counter-example leaves as its compact path (Checker::Render
// draws it out).  (Which counter-example
// candidates a multi-lane run sees, and bitstate pruning, still depend
// on scheduling; see docs/performance.md.)
CheckResult RunSearch(const model::SystemModel& model,
                      const CheckOptions& options) {
  telemetry::ScopedSpan span("check");
  if (!options.request_id.empty()) {
    span.Attr("request_id", options.request_id);
  }
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool* pool = nullptr;
  if (const unsigned jobs = util::ResolveJobs(options.jobs); jobs > 1) {
    pool = options.pool;
    if (pool == nullptr) {
      owned_pool = std::make_unique<util::ThreadPool>(jobs);
      pool = owned_pool.get();
      if (auto* t = telemetry::Active()) {
        ++t->parallel.pools_created;
        t->parallel.workers_spawned += pool->jobs() - 1;
      }
    }
  }
  const unsigned lanes = pool != nullptr ? pool->jobs() : 1;
  SharedSearch run(model, options);

  // ~8 shards per lane keeps two workers off the same mutex without
  // ballooning fixed per-shard overhead; one lane needs one shard.
  const unsigned shards = lanes > 1 ? std::min(64u, lanes * 8) : 1;
  std::unique_ptr<StateStore> store;
  if (options.store == StoreKind::kExhaustive) {
    store = std::make_unique<ExhaustiveStore>(shards);
  } else {
    store = std::make_unique<BitstateStore>(options.bitstate_bits);
  }
  const std::unique_ptr<model::FootprintIndex> footprints =
      MakeFootprints(model, options);
  std::unique_ptr<CollapseCodec> codec;
  if (options.state_compression) {
    codec = std::make_unique<CollapseCodec>(model, shards);
  }
  run.store = store.get();
  run.footprints = footprints.get();
  run.codec = codec.get();

  // Root branches in deterministic enumeration order — the order the DFS
  // visits them, which is also the fold order.
  const model::SystemState initial = model.MakeInitialState();
  struct RootBranch {
    model::ExternalEvent event;
    model::FailureScenario failure;
  };
  std::vector<RootBranch> branches;
  if (options.max_events > 0) {
    const auto& scenarios = options.model_failures
                                ? model::FailureScenario::AllScenarios()
                                : model::FailureScenario::NoFailure();
    for (const model::ExternalEvent& event :
         model::CascadeEngine(model).EnabledEvents(initial)) {
      for (const model::FailureScenario& failure : scenarios) {
        branches.push_back({event, failure});
      }
    }
  }

  Found total = Search(model, run).Start(initial);
  std::vector<Found> found(branches.size());
  auto explore = [&](std::size_t i) {
    found[i] = Search(model, run).RunBranch(initial, branches[i].event,
                                            branches[i].failure);
  };
  if (pool != nullptr) {
    pool->ParallelFor(branches.size(), explore);
  } else {
    for (std::size_t i = 0; i < branches.size(); ++i) explore(i);
  }
  for (Found& branch : found) Fold(model, total, std::move(branch));
  for (std::size_t v = 0; v < total.paths.size(); ++v) {
    for (const GuideStep& g : total.paths[v]) {
      total.violations[v].steps.push_back(CompactStep(model, g));
    }
  }

  CheckResult result;
  result.violations = std::move(total.violations);
  CanonicalizeViolations(result.violations);
  result.states_explored = run.states_explored.load();
  result.states_matched = run.states_matched.load();
  result.transitions = run.transitions.load();
  result.cascade_drains = run.cascade_drains.load();
  result.completed = !run.stop.load();
  for (const auto& bucket : run.depth_histogram) {
    result.depth_histogram.push_back(bucket.load());
  }
  result.seconds = run.Elapsed();
  NoteStoreDiagnostics(result, *store, codec.get());
  WarnIfSaturated(result, options);
  TickFinishTelemetry(result, options);
  span.Attr("states", result.states_explored);
  span.Attr("transitions", result.transitions);
  span.Attr("completed", std::int64_t{result.completed ? 1 : 0});
  if (pool != nullptr) {
    result.jobs = static_cast<int>(lanes);
    if (auto* t = telemetry::Active()) {
      t->parallel.branch_tasks += branches.size();
      if (owned_pool != nullptr) {
        const util::ThreadPool::Stats stats = pool->stats();
        t->parallel.tasks_run += stats.tasks_run;
        t->parallel.tasks_stolen += stats.tasks_stolen;
      }
    }
    span.Attr("jobs", std::int64_t{result.jobs});
  }
  return result;
}

/// Re-executes a recorded path against `model` and reports whether
/// `property_id` fired at `expected_depth`.  Ticks the replay telemetry
/// counters.
ReplayResult ReplayPath(const model::SystemModel& model,
                        const std::vector<TraceStep>& steps,
                        model::Scheduling scheduling, bool por,
                        const std::string& property_id, int expected_depth) {
  CheckOptions options;  // no budgets: exact re-execution
  options.max_events = static_cast<int>(steps.size());
  options.scheduling = scheduling;
  // Replays must enumerate the same (reduced) outcome lists the recording
  // search saw, or the recorded outcome_index points at the wrong drain.
  options.por = por;
  const GuidePath guide = ResolveSteps(model, steps);
  const std::unique_ptr<model::FootprintIndex> footprints =
      MakeFootprints(model, options);
  SharedSearch run(model, options);
  run.footprints = footprints.get();
  telemetry::ScopedSpan span("replay");
  const Found found = Search(model, run).Follow(guide);
  const std::uint64_t transitions = run.transitions.load();
  span.Attr("states", transitions + 1);
  span.Attr("transitions", transitions);
  span.Attr("completed", std::int64_t{1});

  ReplayResult out;
  out.property_id = property_id;
  out.expected_step = expected_depth;
  out.seconds = run.Elapsed();
  const Violation* fired = nullptr;  // one entry per property
  for (const Violation& v : found.violations) {
    if (v.property_id == property_id) fired = &v;
  }
  if (fired != nullptr) out.fired_step = fired->depth;
  out.reproduced = fired != nullptr && fired->depth == expected_depth;
  if (out.reproduced) {
    out.message = "violation of " + property_id +
                  " reproduced deterministically at step " +
                  std::to_string(out.fired_step) + " of " +
                  std::to_string(steps.size());
  } else if (fired != nullptr) {
    out.message = property_id + " fired at step " +
                  std::to_string(out.fired_step) + ", recorded at step " +
                  std::to_string(expected_depth);
  } else {
    out.message = property_id + " did not fire along the recorded path";
  }
  if (auto* t = telemetry::Active()) {
    ++t->search.replays_run;
    if (out.reproduced) {
      ++t->search.replays_reproduced;
    } else {
      ++t->search.replays_refuted;
    }
  }
  return out;
}

}  // namespace

CheckResult Checker::Run(const CheckOptions& options) const {
  CheckResult result = RunSearch(model_, options);
  if (options.reverify_bitstate && options.store == StoreKind::kBitstate &&
      !result.violations.empty()) {
    // Built-in false-positive filter: every violation found under
    // approximate hashing is replayed with an exhaustive store before
    // being reported.
    std::vector<Violation> confirmed;
    for (Violation& violation : result.violations) {
      ReplayResult replay =
          ReplayPath(model_, violation.steps, options.scheduling, options.por,
                     violation.property_id, violation.depth);
      if (replay.reproduced) {
        violation.replay_verified = true;
        confirmed.push_back(std::move(violation));
      }
    }
    result.violations = std::move(confirmed);
  }
  return result;
}

void Checker::Render(Violation& violation, const CheckOptions& options) const {
  const GuidePath path = ResolveSteps(model_, violation.steps);
  const std::unique_ptr<model::FootprintIndex> footprints =
      MakeFootprints(model_, options);
  const model::CascadeEngine tracer(model_, footprints.get(),
                                    model::Recording::kTrace);
  violation.steps.clear();
  model::SystemState state = model_.MakeInitialState();
  for (std::size_t d = 0; d < path.size(); ++d) {
    const GuideStep& g = path[d];
    std::vector<model::StepOutcome> outcomes =
        tracer.Apply(state, g.event, g.failure, options.scheduling);
    model::StepOutcome& outcome =
        outcomes.at(static_cast<std::size_t>(g.outcome_index));
    violation.steps.push_back(
        MakeStep(model_, state, g, outcome, static_cast<int>(d)));
    state = std::move(outcome.state);
  }
}

ReplayResult Checker::Replay(const ViolationArtifact& artifact) const {
  const model::Scheduling scheduling =
      artifact.manifest.scheduling == "concurrent"
          ? model::Scheduling::kConcurrent
          : model::Scheduling::kSequential;
  return ReplayPath(model_, artifact.steps, scheduling, artifact.manifest.por,
                    artifact.property_id, artifact.depth);
}

std::string FormatViolation(const Violation& violation) {
  std::string out;
  out += "violated property " + violation.property_id + " [" +
         violation.category + "]\n";
  out += "  safe state: " + violation.description + "\n";
  if (!violation.failure.empty()) {
    out += "  failure scenario: " + violation.failure + "\n";
  }
  if (!violation.apps.empty()) {
    out += "  involved apps: (";
    for (std::size_t i = 0; i < violation.apps.size(); ++i) {
      if (i > 0) out += ", ";
      out += violation.apps[i];
    }
    out += ")\n";
  }
  out += "  counter-example (" + std::to_string(violation.depth) +
         " external event(s), seen " + std::to_string(violation.occurrences) +
         "x" + (violation.replay_verified ? ", replay-verified" : "") +
         "):\n";
  for (const std::string& line : violation.TraceLines()) {
    out += "    " + line + "\n";
  }
  return out;
}

ViolationArtifact MakeArtifact(const Violation& violation,
                               const CheckOptions& options,
                               const std::string& deployment_name,
                               const std::string& config_hash,
                               std::uint64_t rng_seed) {
  ViolationArtifact artifact;
  RunManifest& manifest = artifact.manifest;
  const build::BuildInfo& info = build::GetBuildInfo();
  manifest.version = info.version;
  manifest.compiler = info.compiler;
  manifest.build_type = info.build_type;
  manifest.deployment = deployment_name;
  manifest.config_hash = config_hash;
  manifest.model_apps = violation.model_apps;
  manifest.rng_seed = rng_seed;
  manifest.request_id = options.request_id;
  manifest.max_events = options.max_events;
  manifest.scheduling = options.scheduling == model::Scheduling::kConcurrent
                            ? "concurrent"
                            : "sequential";
  manifest.model_failures = options.model_failures;
  manifest.store =
      options.store == StoreKind::kBitstate ? "bitstate" : "exhaustive";
  manifest.bitstate_bits =
      options.store == StoreKind::kBitstate ? options.bitstate_bits : 0;
  manifest.include_depth_in_state = options.include_depth_in_state;
  manifest.por = options.por;
  manifest.state_compression = options.state_compression;
  manifest.stop_at_first_violation = options.stop_at_first_violation;
  manifest.max_states = options.max_states;
  manifest.time_budget_seconds = options.time_budget_seconds;

  artifact.property_id = violation.property_id;
  artifact.category = violation.category;
  artifact.description = violation.description;
  artifact.property_kind = std::string(PropertyKindName(violation.kind));
  artifact.failure = violation.failure;
  artifact.detail = violation.detail;
  artifact.depth = violation.depth;
  artifact.occurrences = violation.occurrences;
  artifact.apps = violation.apps;
  artifact.steps = violation.steps;
  return artifact;
}

void ResetSaturationWarning() { g_saturation_warned.clear(); }

}  // namespace iotsan::checker
