// SmartScript evaluator: executes app event handlers over the system
// state.
//
// This is the C++ equivalent of running the paper's generated Promela
// model: each handler invocation is atomic (§8's concurrency argument),
// reads device state from the SystemState, and produces actuator
// commands, mode changes, timers, messages, and new cyber events.
#pragma once

#include <deque>
#include <string>

#include "devices/event.hpp"
#include "model/runtime.hpp"
#include "model/state.hpp"
#include "model/system_model.hpp"

namespace iotsan::model {

class Evaluator {
 public:
  /// `queue` receives the cyber events the handler generates (actuator
  /// state updates, mode changes, synthetic events); `log` accumulates
  /// commands/API calls (and, when `notes` is set, the Fig. 7 trace
  /// lines); `failure` is the cascade's failure scenario.
  Evaluator(const SystemModel& model, SystemState& state,
            std::deque<devices::Event>& queue, CascadeLog& log,
            const FailureScenario& failure, bool notes = false);

  /// Invokes handler `method`, named `name`, of app `app`, passing
  /// `event` (may be null) as the handler's parameter.  A null `method`
  /// (the app has no method `name`) is a runtime error.  Throws
  /// iotsan::Error on runtime errors (step budget exceeded, state-map
  /// misuse).
  void InvokeHandler(int app, const std::string& name,
                     const dsl::MethodDecl* method,
                     const devices::Event* event);

  /// Evaluation step budget per handler invocation; generous for real
  /// apps, small enough to cut off accidental unbounded loops.
  static constexpr int kStepBudget = 100000;

 private:
  struct Impl;
  const SystemModel& model_;
  SystemState& state_;
  std::deque<devices::Event>& queue_;
  CascadeLog& log_;
  const FailureScenario& failure_;
  bool notes_;
};

}  // namespace iotsan::model
