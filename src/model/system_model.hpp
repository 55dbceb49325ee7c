// The Model Generator (paper §8): composes analyzed apps, the deployment
// configuration, and safety properties into a checkable system model.
//
// Responsibilities (mirroring the paper):
//   * model devices per their specifications (event queue + notifiers),
//   * model the platform (subscription registration, location mode,
//     timers),
//   * resolve each app's `input` declarations against the configuration,
//   * bind the applicable safety properties via device roles.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/deployment.hpp"
#include "devices/device.hpp"
#include "devices/event.hpp"
#include "ir/analyzed_app.hpp"
#include "model/invariant.hpp"
#include "model/state.hpp"
#include "model/value.hpp"
#include "props/property.hpp"

namespace iotsan::model {

/// A subscription resolved against concrete devices.
struct ResolvedSubscription {
  ir::EventScope scope = ir::EventScope::kDevice;
  int device = -1;     // kDevice: device table index
  int attribute = -1;  // kDevice: attribute index within the device
  int value = -1;      // required value index; -1 = any
  int mode = -1;       // kLocationMode: required mode index; -1 = any
  int app = 0;
  std::string handler;
  const dsl::MethodDecl* method = nullptr;  // null: the app has no `handler`
};

/// One installed app with its resolved configuration.
struct InstalledApp {
  /// The app's analysis, shared read-only with every other model built
  /// from it.
  std::shared_ptr<const ir::AnalyzedApp> analysis;
  config::AppConfig config;
  /// Each input's runtime value (Device / List of Device / Number /
  /// String / Bool / null), by input ordinal.
  std::vector<Value> bindings;
  /// Each schedule's handler, by schedule index (null: no such method).
  std::vector<const dsl::MethodDecl*> schedule_handlers;
  bool touchable = false;  // subscribes to app touch

  /// The binding of the input named `input` (the last declared), or null.
  const Value* Binding(std::string_view input) const;
};

/// External events the checker enumerates (Algorithm 1's "permutation
/// space").  Sensor events expand to every domain value of the attribute.
struct ExternalEventSpec {
  enum class Kind { kSensor, kAppTouch, kTimerTick, kUserModeChange };
  Kind kind = Kind::kSensor;
  int device = -1;     // kSensor
  int attribute = -1;  // kSensor
  int app = -1;        // kAppTouch
};

/// Model-generation knobs.
struct ModelOptions {
  /// Enumerate every sensor attribute of every device, instead of only
  /// the (device, attribute) pairs some installed app observes.  Used by
  /// the Output Analyzer when attributing a single app (§9), where the
  /// permutation space must not shrink to the app's own subscriptions.
  bool all_sensor_events = false;
  /// Model the user switching the location mode in the companion app as
  /// an external event (enabled when some app subscribes to mode
  /// changes).
  bool user_mode_events = false;
  /// EXTENSION (the paper's §10.1/§11 future work): support apps that
  /// discover devices dynamically.  getAllDevices() & friends return the
  /// deployment's full device list at run time, and such apps'
  /// handlers carry conservative wildcard outputs in the dependency
  /// graph.  Off by default — the paper rejects these apps.
  bool dynamic_discovery = false;
};

class SystemModel {
 public:
  /// Builds the model.  Apps in `deployment.apps` are resolved against
  /// `analyzed` by app name, each analysis installed at most once.
  /// Throws iotsan::ConfigError on unresolvable bindings, missing
  /// required inputs, or apps using dynamic device discovery
  /// (unsupported, paper §11).
  SystemModel(config::Deployment deployment,
              std::vector<ir::AnalyzedApp> analyzed,
              const ModelOptions& options = {});
  /// The same over analyses other models may share (the related sets
  /// of one check share each app's analysis).  `options` has no default
  /// so that `SystemModel(deployment, {})` stays unambiguous.
  SystemModel(config::Deployment deployment,
              std::vector<std::shared_ptr<const ir::AnalyzedApp>> analyzed,
              const ModelOptions& options);

  const config::Deployment& deployment() const { return deployment_; }
  const ModelOptions& options() const { return options_; }
  const std::vector<devices::Device>& devices() const { return devices_; }
  const std::vector<InstalledApp>& apps() const { return apps_; }
  const std::vector<ResolvedSubscription>& subscriptions() const {
    return subscriptions_;
  }
  const std::vector<std::string>& modes() const { return deployment_.modes; }

  int DeviceIndex(const std::string& id) const;

  /// Indices into subscriptions() of those matching a device event /
  /// mode change / app touch, in subscriptions() order.
  const std::vector<int>& Subscribers(const devices::Event& event) const;

  /// The initial state: all devices online at their first domain values,
  /// mode 0, empty app state, no timers.
  SystemState MakeInitialState() const;

  /// External events the checker enumerates.  Sensor events cover
  /// exactly the (device, attribute) pairs some installed app observes —
  /// the permutation space of Algorithm 1.  When `all_sensor_attributes`
  /// is set, every sensor attribute of every device is enumerated instead.
  const std::vector<ExternalEventSpec>& external_events() const {
    return external_events_;
  }

  /// Selects the safety properties to verify; by default every built-in
  /// property applicable to this deployment (all referenced roles
  /// present).  Compiles the active invariants.  Returns the number of
  /// active invariants.
  int SelectProperties(const std::vector<props::Property>& properties);
  const std::vector<props::Property>& active_properties() const {
    return active_properties_;
  }
  /// The active invariants, compiled against this model, in
  /// active_properties() order.
  const std::vector<CompiledInvariant>& invariants() const {
    return invariants_;
  }

  /// Sum of event-handler counts across installed apps (reporting).
  int TotalHandlerCount() const;

 private:
  config::Deployment deployment_;
  ModelOptions options_;
  std::vector<devices::Device> devices_;
  /// Shared so that its address, which every state holds, survives a
  /// move of the model.
  std::shared_ptr<const StateLayout> layout_;
  std::vector<InstalledApp> apps_;
  std::vector<ResolvedSubscription> subscriptions_;
  // Subscribers() by event: [device][attribute][value], [mode], [app].
  std::vector<std::vector<std::vector<std::vector<int>>>> device_subscribers_;
  std::vector<std::vector<int>> mode_subscribers_;
  std::vector<std::vector<int>> touch_subscribers_;
  std::vector<ExternalEventSpec> external_events_;
  std::vector<props::Property> active_properties_;
  std::vector<CompiledInvariant> invariants_;

  void BuildDevices();
  void ResolveApps(
      std::vector<std::shared_ptr<const ir::AnalyzedApp>> analyzed);
  void ResolveBindings(InstalledApp& app);
  void ResolveSubscriptions();
  void IndexSubscribers();
  void BuildExternalEvents();
};

}  // namespace iotsan::model
