// Cascade engine: applies one external event to a system state and
// drains the resulting chain of cyber events (paper Fig. 2, Algorithm 1).
//
// Two scheduling designs are implemented, matching the paper's §8
// "Concurrency Model" discussion:
//   * kSequential — the internal events triggered by an external event
//     are handled atomically in FIFO order; the checker then only
//     permutes *external* events (weak concurrency).  One outcome per
//     (state, event, failure).
//   * kConcurrent — every interleaving of the pending internal events is
//     explored (strict concurrency).  The outcome count grows
//     factorially; this design exists to reproduce Table 7b.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model/evaluator.hpp"
#include "model/runtime.hpp"
#include "model/state.hpp"
#include "model/system_model.hpp"

namespace iotsan::model {

class FootprintIndex;

enum class Scheduling { kSequential, kConcurrent };

/// What a drain records beyond the state change and the monitors' inputs
/// (commands, API calls, actuations, mode setters, delivery tallies).
enum class Recording {
  /// The free search: no Fig. 7 notes (CascadeLog::trace) and no
  /// dispatch list; ticks the search.* and por.* counters.
  kSearch,
  /// Counter-example building: renders the notes and the dispatch list a
  /// TraceStep reports, and ticks no counter.
  kTrace,
};

/// One concrete external event chosen from the permutation space.
struct ExternalEvent {
  ExternalEventSpec::Kind kind = ExternalEventSpec::Kind::kSensor;
  int device = -1;     // kSensor
  int attribute = -1;  // kSensor
  int value = -1;      // kSensor: target value index
  int app = -1;        // kAppTouch

  /// "alicePresence: presence/notpresent" rendering.
  std::string Describe(const SystemModel& model) const;
};

/// The result of processing one external event to quiescence.
struct StepOutcome {
  SystemState state;
  CascadeLog log;
};

/// Cooperative cancellation: polled between cascade drains (and between
/// dispatches within a drain) so wall-clock budgets hold even when a
/// single external event fans out into a huge interleaving space.
using CancelFn = std::function<bool()>;

class CascadeEngine {
 public:
  /// When `footprints` is non-null, concurrent scheduling applies
  /// ample-set partial-order reduction: a pending event whose dispatch
  /// commutes with all other pending dispatches (and their trigger
  /// cones) is expanded alone instead of fanning out the full
  /// interleaving set.  Sequential scheduling ignores it.  `recording`
  /// says whether drains render trace output (see Recording).
  explicit CascadeEngine(const SystemModel& model,
                         const FootprintIndex* footprints = nullptr,
                         Recording recording = Recording::kSearch)
      : model_(model), footprints_(footprints), recording_(recording) {}

  /// Applies `event` under `failure` starting from `from`.  Sequential
  /// scheduling returns exactly one outcome; concurrent scheduling one
  /// outcome per internal-event interleaving (bounded by
  /// `max_interleavings`).  When `cancel` is set and returns true the
  /// enumeration stops early; already-drained outcomes are returned and
  /// the caller decides what to do with the partial set.
  std::vector<StepOutcome> Apply(const SystemState& from,
                                 const ExternalEvent& event,
                                 const FailureScenario& failure,
                                 Scheduling scheduling,
                                 const CancelFn& cancel = {}) const;

  /// All concrete external events enabled in `state`: every sensor
  /// (device, attribute, value != current), app touches, and a timer tick
  /// when timers/schedules are pending.
  std::vector<ExternalEvent> EnabledEvents(const SystemState& state) const;

  /// Internal events processed per cascade before it is cut off (guards
  /// against app ping-pong loops).
  static constexpr int kCascadeBound = 128;
  /// Cap on interleavings per step in concurrent mode.
  static constexpr int kMaxInterleavings = 100000;

 private:
  const SystemModel& model_;
  const FootprintIndex* footprints_ = nullptr;
  Recording recording_ = Recording::kSearch;

  bool tracing() const { return recording_ == Recording::kTrace; }

  void InjectExternal(SystemState& state, const ExternalEvent& event,
                      const FailureScenario& failure,
                      std::deque<devices::Event>& queue,
                      CascadeLog& log) const;
  void DispatchOne(SystemState& state, const devices::Event& event,
                   std::deque<devices::Event>& queue, CascadeLog& log,
                   const FailureScenario& failure) const;
  void RunSequential(SystemState& state, std::deque<devices::Event>& queue,
                     CascadeLog& log, const FailureScenario& failure,
                     const CancelFn& cancel) const;
  void RunConcurrent(const SystemState& state,
                     const std::deque<devices::Event>& queue,
                     const CascadeLog& log, const FailureScenario& failure,
                     int depth, std::vector<StepOutcome>& outcomes,
                     const CancelFn& cancel) const;
};

}  // namespace iotsan::model
