// Shared runtime records for cascade execution (paper §8, Algorithm 1).
#pragma once

#include <string>
#include <vector>

#include "devices/capability.hpp"

namespace iotsan::model {

/// Failure scenario applied to one external-event cascade, modeling
/// natural or induced device/communication failures (§8): the sensor may
/// be offline when the physical event occurs; actuators may be offline;
/// hub<->device communication may fail.
struct FailureScenario {
  bool sensor_offline = false;
  bool actuator_offline = false;
  bool comm_fail = false;

  bool Any() const { return sensor_offline || actuator_offline || comm_fail; }
  std::string Label() const;

  /// The scenarios enumerated per external event when failure modeling is
  /// enabled: no-failure plus each single-failure case.
  static const std::vector<FailureScenario>& AllScenarios();
  static const std::vector<FailureScenario>& NoFailure();
};

/// One actuator command received during a cascade.  The conflicting- and
/// repeated-command monitors (§8) run over this list.
struct CommandRecord {
  int app = 0;
  int device = -1;
  const devices::CommandSpec* spec = nullptr;
  int value_index = -1;    // resolved target value
  bool delivered = true;   // false when the actuator was offline / comm failed
  bool state_changed = false;
  int line = 0;            // source line in the app (for traces)
};

/// One message/network/security-sensitive API call observed during a
/// cascade (leakage and suspicious-behaviour monitors, §3/§8).
struct ApiCallRecord {
  enum class Kind { kSms, kPush, kHttp, kUnsubscribe, kFakeEvent };
  Kind kind = Kind::kSms;
  int app = 0;
  std::string detail;      // recipient / URL / event description
  bool recipient_mismatch = false;
  int line = 0;
};

/// One app event-handler invocation during a cascade, in dispatch order.
/// The structured counter-example traces (checker/trace.hpp) report these
/// as the "firing handler" sequence of each step.
struct HandlerDispatch {
  int app = 0;
  std::string handler;
};

/// Everything observed while processing one external event.
struct CascadeLog {
  std::vector<CommandRecord> commands;
  std::vector<ApiCallRecord> api_calls;
  /// Handler invocations and the Fig. 7-style trace lines: recorded only
  /// when the cascade is drained for a counter-example
  /// (Recording::kTrace), never during the free search.
  std::vector<HandlerDispatch> dispatches;
  std::vector<std::string> trace;
  /// (app, device) pairs for every actuation attempt this cascade; used
  /// by the Output Analyzer to charge violations to the apps that drove
  /// the devices a property talks about.
  std::vector<std::pair<int, int>> actuations;
  /// Apps that changed the location mode this cascade.
  std::vector<int> mode_setters;
  int failed_deliveries = 0;
  bool user_notified = false;  // an SMS/push reached the user
  bool truncated = false;      // cascade exceeded the internal event bound
  /// Deepest the pending cyber-event queue got while draining this
  /// cascade (a congestion signal for the structured traces).
  int max_queue_depth = 0;
};

}  // namespace iotsan::model
