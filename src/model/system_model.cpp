#include "model/system_model.hpp"

#include <algorithm>
#include <set>

#include "dsl/type_infer.hpp"
#include "util/error.hpp"

namespace iotsan::model {

namespace {

std::vector<std::shared_ptr<const ir::AnalyzedApp>> Share(
    std::vector<ir::AnalyzedApp> analyzed) {
  std::vector<std::shared_ptr<const ir::AnalyzedApp>> shared;
  shared.reserve(analyzed.size());
  for (ir::AnalyzedApp& app : analyzed) {
    shared.push_back(std::make_shared<const ir::AnalyzedApp>(std::move(app)));
  }
  return shared;
}

}  // namespace

const Value* InstalledApp::Binding(std::string_view input) const {
  const std::vector<dsl::InputDecl>& inputs = analysis->app.inputs;
  for (std::size_t i = inputs.size(); i-- > 0;) {
    if (inputs[i].name == input) return &bindings[i];
  }
  return nullptr;
}

SystemModel::SystemModel(
    config::Deployment deployment,
    std::vector<std::shared_ptr<const ir::AnalyzedApp>> analyzed,
    const ModelOptions& options)
    : deployment_(std::move(deployment)), options_(options) {
  BuildDevices();
  ResolveApps(std::move(analyzed));
  ResolveSubscriptions();
  IndexSubscribers();
  BuildExternalEvents();
  SelectProperties(props::BuiltinProperties());
}

SystemModel::SystemModel(config::Deployment deployment,
                         std::vector<ir::AnalyzedApp> analyzed,
                         const ModelOptions& options)
    : SystemModel(std::move(deployment), Share(std::move(analyzed)),
                  options) {}

void SystemModel::BuildDevices() {
  for (const config::DeviceConfig& cfg : deployment_.devices) {
    const devices::DeviceTypeSpec* type =
        devices::DeviceTypeRegistry::Instance().Find(cfg.type);
    if (type == nullptr) {
      throw ConfigError("unknown device type '" + cfg.type + "'");
    }
    devices_.emplace_back(cfg.id, *type, cfg.roles);
  }
  layout_ = std::make_shared<const StateLayout>(devices_);
}

int SystemModel::DeviceIndex(const std::string& id) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].id() == id) return static_cast<int>(i);
  }
  return -1;
}

void SystemModel::ResolveApps(
    std::vector<std::shared_ptr<const ir::AnalyzedApp>> analyzed) {
  for (const config::AppConfig& app_cfg : deployment_.apps) {
    // Find (and consume) the analyzed app with this name.
    auto it = std::find_if(
        analyzed.begin(), analyzed.end(),
        [&app_cfg](const std::shared_ptr<const ir::AnalyzedApp>& a) {
          return a->app.name == app_cfg.app;
        });
    if (it == analyzed.end()) {
      throw ConfigError("deployment installs app '" + app_cfg.app +
                        "' but no such app source was provided");
    }
    if ((*it)->dynamic_device_discovery && !options_.dynamic_discovery) {
      throw ConfigError(
          "app '" + app_cfg.app +
          "' discovers devices dynamically; IotSan cannot handle such apps "
          "(paper §11) — rejecting (enable the dynamic-discovery extension "
          "to check it)");
    }
    InstalledApp installed;
    installed.analysis = std::move(*it);
    analyzed.erase(it);
    installed.config = app_cfg;
    ResolveBindings(installed);
    for (const ir::Subscription& sub : installed.analysis->subscriptions) {
      if (sub.scope == ir::EventScope::kAppTouch) installed.touchable = true;
    }
    for (const ir::ScheduleInfo& schedule : installed.analysis->schedules) {
      installed.schedule_handlers.push_back(
          installed.analysis->app.FindMethod(schedule.handler));
    }
    apps_.push_back(std::move(installed));
  }
}

void SystemModel::ResolveBindings(InstalledApp& app) {
  const std::string& label = app.config.label;
  const std::vector<dsl::InputDecl>& inputs = app.analysis->app.inputs;
  app.bindings.resize(inputs.size());
  for (std::size_t ordinal = 0; ordinal < inputs.size(); ++ordinal) {
    const dsl::InputDecl& input = inputs[ordinal];
    Value& bound_value = app.bindings[ordinal];
    auto bound = app.config.inputs.find(input.name);
    if (bound == app.config.inputs.end()) {
      if (input.required && input.default_value == nullptr) {
        throw ConfigError("app '" + label + "': required input '" +
                          input.name + "' is not configured");
      }
      // Optional/defaulted inputs: bind the declared default or null.
      if (input.default_value != nullptr) {
        const dsl::Expr& dflt = *input.default_value;
        if (dflt.kind == dsl::ExprKind::kNumberLit) {
          bound_value = Value::Number(dflt.number_value);
        } else if (dflt.kind == dsl::ExprKind::kStringLit) {
          bound_value = Value::String(dflt.text);
        } else if (dflt.kind == dsl::ExprKind::kBoolLit) {
          bound_value = Value::Bool(dflt.bool_value);
        }
      }
      continue;
    }

    const config::Binding& binding = bound->second;
    const dsl::Type declared = dsl::InputDeclType(input);
    const bool wants_device =
        declared.is_device() ||
        (declared.is_list() && declared.element().is_device());

    if (wants_device) {
      if (!binding.IsDeviceBinding()) {
        throw ConfigError("app '" + label + "': input '" + input.name +
                          "' needs device(s)");
      }
      const std::string capability = declared.is_list()
                                         ? declared.element().capability()
                                         : declared.capability();
      ValueList devices_list;
      for (const std::string& id : binding.device_ids) {
        const int index = DeviceIndex(id);
        if (index < 0) {
          throw ConfigError("app '" + label + "': input '" + input.name +
                            "' binds unknown device '" + id + "'");
        }
        if (!devices_[index].type().HasCapability(capability)) {
          throw ConfigError("app '" + label + "': device '" + id +
                            "' lacks capability '" + capability +
                            "' required by input '" + input.name + "'");
        }
        devices_list.push_back(Value::Device(index));
      }
      if (!input.multiple && devices_list.size() > 1) {
        throw ConfigError("app '" + label + "': input '" + input.name +
                          "' accepts a single device but " +
                          std::to_string(devices_list.size()) +
                          " were configured");
      }
      if (input.multiple) {
        bound_value = Value::List(std::move(devices_list));
      } else {
        bound_value = devices_list.front();
      }
      continue;
    }

    if (binding.number.has_value()) {
      bound_value = Value::Number(*binding.number);
    } else if (binding.text.has_value()) {
      bound_value = Value::String(*binding.text);
    } else if (binding.flag.has_value()) {
      bound_value = Value::Bool(*binding.flag);
    } else {
      throw ConfigError("app '" + label + "': input '" + input.name +
                        "' has an incompatible binding");
    }
  }
}

void SystemModel::ResolveSubscriptions() {
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const InstalledApp& app = apps_[a];
    for (const ir::Subscription& sub : app.analysis->subscriptions) {
      ResolvedSubscription resolved;
      resolved.scope = sub.scope;
      resolved.app = static_cast<int>(a);
      resolved.handler = sub.handler;
      resolved.method = app.analysis->app.FindMethod(sub.handler);

      switch (sub.scope) {
        case ir::EventScope::kAppTouch:
          subscriptions_.push_back(resolved);
          break;
        case ir::EventScope::kLocationMode: {
          if (!sub.value.empty()) {
            resolved.mode = deployment_.ModeIndex(sub.value);
          }
          subscriptions_.push_back(resolved);
          break;
        }
        case ir::EventScope::kDevice: {
          const Value* binding = app.Binding(sub.input);
          if (binding == nullptr) break;
          ValueList targets;
          if (binding->is_device()) {
            targets.push_back(*binding);
          } else if (binding->is_list()) {
            targets = binding->AsList();
          } else {
            break;  // unbound optional input: no subscription
          }
          for (const Value& target : targets) {
            if (!target.is_device()) continue;
            const devices::Device& device = devices_[target.DeviceIndex()];
            const int attr_index = device.AttributeIndex(sub.attribute);
            if (attr_index < 0) {
              throw ConfigError(
                  "app '" + app.config.label + "' subscribes to attribute '" +
                  sub.attribute + "' which device '" + device.id() +
                  "' does not have");
            }
            ResolvedSubscription per_device = resolved;
            per_device.device = target.DeviceIndex();
            per_device.attribute = attr_index;
            if (!sub.value.empty()) {
              per_device.value =
                  device.attributes()[attr_index]->IndexOfValue(sub.value);
            }
            subscriptions_.push_back(per_device);
          }
          break;
        }
        case ir::EventScope::kTime:
          break;  // schedules handled separately
      }
    }
  }
}

void SystemModel::IndexSubscribers() {
  device_subscribers_.resize(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    for (const devices::AttributeSpec* attr : devices_[d].attributes()) {
      device_subscribers_[d].emplace_back(
          static_cast<std::size_t>(attr->domain_size()));
    }
  }
  mode_subscribers_.resize(modes().size());
  touch_subscribers_.resize(apps_.size());
  for (std::size_t i = 0; i < subscriptions_.size(); ++i) {
    const ResolvedSubscription& sub = subscriptions_[i];
    const int index = static_cast<int>(i);
    switch (sub.scope) {
      case ir::EventScope::kDevice: {
        auto& by_value = device_subscribers_[sub.device][sub.attribute];
        for (std::size_t v = 0; v < by_value.size(); ++v) {
          if (sub.value < 0 || sub.value == static_cast<int>(v)) {
            by_value[v].push_back(index);
          }
        }
        break;
      }
      case ir::EventScope::kLocationMode:
        for (std::size_t m = 0; m < mode_subscribers_.size(); ++m) {
          if (sub.mode < 0 || sub.mode == static_cast<int>(m)) {
            mode_subscribers_[m].push_back(index);
          }
        }
        break;
      case ir::EventScope::kAppTouch:
        touch_subscribers_[sub.app].push_back(index);
        break;
      case ir::EventScope::kTime:
        break;
    }
  }
}

const std::vector<int>& SystemModel::Subscribers(
    const devices::Event& event) const {
  static const std::vector<int> kNone;
  auto at = [](const std::vector<std::vector<int>>& lists,
               int i) -> const std::vector<int>& {
    return i >= 0 && static_cast<std::size_t>(i) < lists.size() ? lists[i]
                                                                 : kNone;
  };
  switch (event.source) {
    case devices::EventSource::kDevice:
      return at(device_subscribers_[event.device][event.attribute],
                event.value);
    case devices::EventSource::kLocationMode:
      return at(mode_subscribers_, event.value);
    case devices::EventSource::kAppTouch:
      return at(touch_subscribers_, event.app);
    case devices::EventSource::kTimer:
      break;  // timers dispatch directly to their handler
  }
  return kNone;
}

SystemState SystemModel::MakeInitialState() const {
  SystemState state;
  state.layout = layout_.get();
  state.cells.assign(layout_->cell_count(), 0);
  for (int d = 0; d < layout_->device_count(); ++d) state.set_online(d, true);
  state.mode = 0;
  state.app_state.resize(apps_.size());
  return state;
}

void SystemModel::BuildExternalEvents() {
  // Sensor events: the (device, attribute) pairs observed by installed
  // apps (through subscriptions or state reads).  This is the §5/§8
  // permutation space; attributes no app can see cannot influence the
  // system and are omitted.  With all_sensor_events, every sensor
  // attribute of every device is enumerated instead (§9 attribution).
  std::set<std::pair<int, int>> observed;
  if (options_.all_sensor_events) {
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      const auto& attrs = devices_[d].attributes();
      for (std::size_t a = 0; a < attrs.size(); ++a) {
        observed.insert({static_cast<int>(d), static_cast<int>(a)});
      }
    }
  }
  for (const ResolvedSubscription& sub : subscriptions_) {
    if (sub.scope == ir::EventScope::kDevice) {
      observed.insert({sub.device, sub.attribute});
    }
  }
  // State reads from handler summaries, resolved through bindings.
  for (const InstalledApp& app : apps_) {
    for (const ir::HandlerInfo& handler : app.analysis->handlers) {
      for (const ir::EventPattern& in : handler.inputs) {
        if (in.scope != ir::EventScope::kDevice || in.input.empty()) continue;
        const Value* binding = app.Binding(in.input);
        if (binding == nullptr) continue;
        ValueList targets;
        if (binding->is_device()) {
          targets.push_back(*binding);
        } else if (binding->is_list()) {
          targets = binding->AsList();
        }
        for (const Value& target : targets) {
          if (!target.is_device()) continue;
          const int device = target.DeviceIndex();
          const int attr = devices_[device].AttributeIndex(in.attribute);
          if (attr >= 0) observed.insert({device, attr});
        }
      }
    }
  }

  const auto& registry = devices::CapabilityRegistry::Instance();
  for (const auto& [device, attr] : observed) {
    // Only environment-driven (sensor) attributes are external inputs;
    // actuator attributes change via commands.
    const devices::AttributeSpec* spec = devices_[device].attributes()[attr];
    bool is_sensor_attr = false;
    for (const std::string& cap_name : devices_[device].type().capabilities) {
      const devices::CapabilitySpec* cap = registry.Find(cap_name);
      if (cap != nullptr && cap->sensor && cap->FindAttribute(spec->name)) {
        is_sensor_attr = true;
        break;
      }
    }
    if (!is_sensor_attr) continue;
    ExternalEventSpec event;
    event.kind = ExternalEventSpec::Kind::kSensor;
    event.device = device;
    event.attribute = attr;
    external_events_.push_back(event);
  }

  for (std::size_t a = 0; a < apps_.size(); ++a) {
    if (apps_[a].touchable) {
      ExternalEventSpec event;
      event.kind = ExternalEventSpec::Kind::kAppTouch;
      event.app = static_cast<int>(a);
      external_events_.push_back(event);
    }
  }

  // One timer-tick event: fires pending runIn timers and recurring
  // schedules (system time is monotonic; a tick advances it past the next
  // deadline, §8).
  bool has_schedules = false;
  for (const InstalledApp& app : apps_) {
    has_schedules = has_schedules || !app.analysis->schedules.empty();
  }
  if (has_schedules) {
    ExternalEventSpec event;
    event.kind = ExternalEventSpec::Kind::kTimerTick;
    external_events_.push_back(event);
  }

  // User-initiated mode switches via the companion app.
  if (options_.user_mode_events) {
    bool mode_observed = false;
    for (const ResolvedSubscription& sub : subscriptions_) {
      mode_observed =
          mode_observed || sub.scope == ir::EventScope::kLocationMode;
    }
    if (mode_observed) {
      ExternalEventSpec event;
      event.kind = ExternalEventSpec::Kind::kUserModeChange;
      external_events_.push_back(event);
    }
  }
}

int SystemModel::SelectProperties(
    const std::vector<props::Property>& properties) {
  active_properties_.clear();
  invariants_.clear();
  for (const props::Property& property : properties) {
    // Applicable when every universally-quantified role is present (all()
    // over an empty set is vacuously true -> spurious violations) and at
    // least one referenced role exists at all (otherwise the property is
    // about devices this home does not have).
    bool applicable = true;
    for (const std::string& role : property.universal_roles) {
      if (deployment_.DevicesWithRole(role).empty()) {
        applicable = false;
        break;
      }
    }
    if (applicable && !property.roles.empty()) {
      bool any_role_present = false;
      for (const std::string& role : property.roles) {
        any_role_present =
            any_role_present || !deployment_.DevicesWithRole(role).empty();
      }
      applicable = any_role_present;
    }
    if (!applicable) continue;
    if (property.kind == props::PropertyKind::kInvariant) {
      invariants_.emplace_back(property, active_properties_.size(), devices_,
                               deployment_.modes);
    }
    active_properties_.push_back(property);
  }
  return static_cast<int>(invariants_.size());
}

int SystemModel::TotalHandlerCount() const {
  int count = 0;
  for (const InstalledApp& app : apps_) {
    count += static_cast<int>(app.analysis->handlers.size());
  }
  return count;
}

}  // namespace iotsan::model
