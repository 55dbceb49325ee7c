#include "props/property.hpp"

#include "dsl/parser.hpp"
#include "util/error.hpp"

namespace iotsan::props {

const dsl::Expr& Property::ParsedExpression() const {
  if (!parsed_) throw Error("property " + id + " has no expression");
  return *parsed_;
}

std::vector<std::string> RolesReferenced(const dsl::Expr& expr) {
  std::vector<std::string> roles;
  auto add = [&roles](const std::string& role) {
    for (const std::string& existing : roles) {
      if (existing == role) return;
    }
    roles.push_back(role);
  };
  // Quantifier terms carry their role as the first string argument.
  if (expr.kind == dsl::ExprKind::kCall &&
      (expr.text == "any" || expr.text == "all" || expr.text == "count" ||
       expr.text == "online" || expr.text == "offline" ||
       expr.text == "exists") &&
      !expr.items.empty() &&
      expr.items[0]->kind == dsl::ExprKind::kStringLit) {
    add(expr.items[0]->text);
  }
  if (expr.a) {
    for (const std::string& r : RolesReferenced(*expr.a)) add(r);
  }
  if (expr.b) {
    for (const std::string& r : RolesReferenced(*expr.b)) add(r);
  }
  if (expr.c) {
    for (const std::string& r : RolesReferenced(*expr.c)) add(r);
  }
  for (const dsl::ExprPtr& item : expr.items) {
    for (const std::string& r : RolesReferenced(*item)) add(r);
  }
  for (const dsl::NamedArg& arg : expr.named) {
    for (const std::string& r : RolesReferenced(*arg.value)) add(r);
  }
  return roles;
}

namespace {
void CollectRoles(const dsl::Expr& expr, bool universal_only,
                  std::vector<std::string>& roles) {
  auto add = [&roles](const std::string& role) {
    for (const std::string& existing : roles) {
      if (existing == role) return;
    }
    roles.push_back(role);
  };
  if (expr.kind == dsl::ExprKind::kCall && !expr.items.empty() &&
      expr.items[0]->kind == dsl::ExprKind::kStringLit) {
    const bool universal = expr.text == "all" || expr.text == "online" ||
                           expr.text == "offline";
    const bool existential = expr.text == "any" || expr.text == "count" ||
                             expr.text == "exists";
    if (universal || (existential && !universal_only)) {
      add(expr.items[0]->text);
    }
  }
  if (expr.a) CollectRoles(*expr.a, universal_only, roles);
  if (expr.b) CollectRoles(*expr.b, universal_only, roles);
  if (expr.c) CollectRoles(*expr.c, universal_only, roles);
  for (const dsl::ExprPtr& item : expr.items) {
    CollectRoles(*item, universal_only, roles);
  }
  for (const dsl::NamedArg& arg : expr.named) {
    CollectRoles(*arg.value, universal_only, roles);
  }
}
}  // namespace

std::vector<std::string> UniversalRolesReferenced(const dsl::Expr& expr) {
  std::vector<std::string> roles;
  CollectRoles(expr, /*universal_only=*/true, roles);
  return roles;
}

bool ReferencesMode(const dsl::Expr& expr) {
  if (expr.kind == dsl::ExprKind::kIdent && expr.text == "mode") return true;
  if (expr.a && ReferencesMode(*expr.a)) return true;
  if (expr.b && ReferencesMode(*expr.b)) return true;
  if (expr.c && ReferencesMode(*expr.c)) return true;
  for (const dsl::ExprPtr& item : expr.items) {
    if (ReferencesMode(*item)) return true;
  }
  for (const dsl::NamedArg& arg : expr.named) {
    if (ReferencesMode(*arg.value)) return true;
  }
  return false;
}

Property MakeInvariant(std::string id, std::string category,
                       std::string description, std::string expression) {
  Property p;
  p.id = std::move(id);
  p.category = std::move(category);
  p.description = std::move(description);
  p.kind = PropertyKind::kInvariant;
  p.expression = std::move(expression);
  p.parsed_ = dsl::ParseExpression(p.expression, "property " + p.id);
  p.roles = RolesReferenced(*p.parsed_);
  p.universal_roles = UniversalRolesReferenced(*p.parsed_);
  return p;
}

namespace {

Property Monitor(std::string id, std::string category,
                 std::string description, PropertyKind kind) {
  Property p;
  p.id = std::move(id);
  p.category = std::move(category);
  p.description = std::move(description);
  p.kind = kind;
  return p;
}

std::vector<Property> BuildBuiltins() {
  std::vector<Property> props;
  const char* kHvac = "Thermostat, AC, and Heater";
  const char* kLock = "Lock and door control";
  const char* kMode = "Location mode";
  const char* kSecurity = "Security and alarming";
  const char* kWater = "Water and sprinkler";
  const char* kOthers = "Others";

  // --- Thermostat, AC, and Heater (5) -------------------------------------
  props.push_back(MakeInvariant(
      "P01", kHvac,
      "A heater is on when temperature is below a predefined threshold and "
      "people are at home",
      R"(!(any("tempSensor", "temperature") < 65
          && any("presence", "presence") == "present"
          && all("heaterOutlet", "switch") == "off"))"));
  props.push_back(MakeInvariant(
      "P02", kHvac,
      "An AC is on when temperature is above a predefined threshold and "
      "people are at home",
      R"(!(any("tempSensor", "temperature") > 80
          && any("presence", "presence") == "present"
          && all("acOutlet", "switch") == "off"))"));
  props.push_back(MakeInvariant(
      "P03", kHvac, "An AC and a heater are never both turned on",
      R"(!(any("acOutlet", "switch") == "on"
          && any("heaterOutlet", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P04", kHvac,
      "A heater is not turned on when temperature is above a predefined "
      "threshold",
      R"(!(any("tempSensor", "temperature") > 80
          && any("heaterOutlet", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P05", kHvac,
      "An AC is not turned on when temperature is below a predefined "
      "threshold",
      R"(!(any("tempSensor", "temperature") < 65
          && any("acOutlet", "switch") == "on"))"));

  // --- Lock and door control (8) -------------------------------------------
  props.push_back(MakeInvariant(
      "P06", kLock, "The main door is locked when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && any("mainDoorLock", "lock") == "unlocked"))"));
  props.push_back(MakeInvariant(
      "P07", kLock,
      "The main door is locked when people are sleeping at night",
      R"(!(mode == "Night" && any("mainDoorLock", "lock") == "unlocked"))"));
  props.push_back(MakeInvariant(
      "P08", kLock, "The garage door is closed when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && any("garageDoor", "door") == "open"))"));
  props.push_back(MakeInvariant(
      "P09", kLock, "The garage door is closed at night",
      R"(!(mode == "Night" && any("garageDoor", "door") == "open"))"));
  props.push_back(MakeInvariant(
      "P10", kLock, "The main door is locked when location mode is Away",
      R"(!(mode == "Away" && any("mainDoorLock", "lock") == "unlocked"))"));
  props.push_back(MakeInvariant(
      "P11", kLock, "The front door is not left open when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && any("frontDoorContact", "contact") == "open"))"));
  props.push_back(MakeInvariant(
      "P12", kLock, "The entrance door is closed when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && any("entranceDoor", "door") == "open"))"));
  props.push_back(MakeInvariant(
      "P13", kLock, "The main door is locked while people are sleeping",
      R"(!(any("sleepSensor", "sleeping") == "sleeping"
          && any("mainDoorLock", "lock") == "unlocked"))"));

  // --- Location mode (3) ----------------------------------------------------
  props.push_back(MakeInvariant(
      "P14", kMode, "Location mode is changed to Away when no one is at home",
      R"(!(all("presence", "presence") == "notpresent" && mode == "Home"))"));
  props.push_back(MakeInvariant(
      "P15", kMode, "Location mode is not Away while someone is at home",
      R"(!(any("presence", "presence") == "present" && mode == "Away"))"));
  props.push_back(MakeInvariant(
      "P16", kMode, "Location mode is not Night when no one is at home",
      R"(!(mode == "Night"
          && all("presence", "presence") == "notpresent"))"));

  // --- Security and alarming (14) -------------------------------------------
  props.push_back(MakeInvariant(
      "P17", kSecurity, "An alarm strobes/sirens when detecting smoke",
      R"(!(any("smokeSensor", "smoke") == "detected"
          && all("alarmSiren", "alarm") == "off"))"));
  props.push_back(MakeInvariant(
      "P18", kSecurity,
      "An alarm strobes/sirens when detecting carbon monoxide",
      R"(!(any("coSensor", "carbonMonoxide") == "detected"
          && all("alarmSiren", "alarm") == "off"))"));
  props.push_back(MakeInvariant(
      "P19", kSecurity,
      "An alarm strobes/sirens when motion is detected while Away",
      R"(!(mode == "Away" && any("securityMotion", "motion") == "active"
          && all("alarmSiren", "alarm") == "off"))"));
  props.push_back(MakeInvariant(
      "P20", kSecurity,
      "An alarm strobes/sirens when a door opens while Away",
      R"(!(mode == "Away" && any("frontDoorContact", "contact") == "open"
          && all("alarmSiren", "alarm") == "off"))"));
  props.push_back(MakeInvariant(
      "P21", kSecurity, "The alarm is silent when there is no emergency",
      R"(!(any("alarmSiren", "alarm") != "off"
          && all("smokeSensor", "smoke") == "clear"
          && all("coSensor", "carbonMonoxide") == "clear"
          && all("securityMotion", "motion") == "inactive"
          && mode != "Away"))"));
  props.push_back(MakeInvariant(
      "P22", kSecurity,
      "The camera captures an image when motion is detected while Away",
      R"(!(mode == "Away" && any("securityMotion", "motion") == "active"
          && all("camera", "image") == "none"))"));
  props.push_back(MakeInvariant(
      "P23", kSecurity,
      "The water valve is not shut off while smoke is detected",
      R"(!(any("smokeSensor", "smoke") == "detected"
          && any("waterValve", "valve") == "closed"))"));
  props.push_back(MakeInvariant(
      "P24", kSecurity,
      "The camera captures an image when a door opens while Away",
      R"(!(mode == "Away" && any("frontDoorContact", "contact") == "open"
          && all("camera", "image") == "none"))"));
  props.push_back(MakeInvariant(
      "P25", kSecurity, "An alarm strobes/sirens when a water leak is "
      "detected",
      R"(!(any("leakSensor", "water") == "wet"
          && all("alarmSiren", "alarm") == "off"))"));
  props.push_back(MakeInvariant(
      "P26", kSecurity,
      "Ventilation is on while carbon monoxide is detected",
      R"(!(any("coSensor", "carbonMonoxide") == "detected"
          && any("ventSwitch", "switch") == "off"))"));
  props.push_back(MakeInvariant(
      "P27", kSecurity, "Window shades are closed when location mode is Away",
      R"(!(mode == "Away" && any("windowShade", "windowShade") == "open"))"));
  props.push_back(MakeInvariant(
      "P28", kSecurity, "The heater is powered off while smoke is detected",
      R"(!(any("smokeSensor", "smoke") == "detected"
          && any("heaterOutlet", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P29", kSecurity,
      "Appliance outlets are powered off while smoke is detected",
      R"(!(any("smokeSensor", "smoke") == "detected"
          && any("applianceOutlet", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P30", kSecurity,
      "Security lighting turns on when motion is detected while Away",
      R"(!(mode == "Away" && any("securityMotion", "motion") == "active"
          && all("securityLight", "switch") == "off"))"));

  // --- Water and sprinkler (3) ----------------------------------------------
  props.push_back(MakeInvariant(
      "P31", kWater, "The sprinkler runs when soil moisture is too low",
      R"(!(any("moistureSensor", "soilMoisture") < 20
          && all("sprinklerSwitch", "switch") == "off"))"));
  props.push_back(MakeInvariant(
      "P32", kWater, "The sprinkler is off when soil moisture is high",
      R"(!(any("moistureSensor", "soilMoisture") > 60
          && any("sprinklerSwitch", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P33", kWater, "The water valve is closed when a leak is detected",
      R"(!(any("leakSensor", "water") == "wet"
          && any("waterValve", "valve") == "open"))"));

  // --- Others (5) -------------------------------------------------------------
  props.push_back(MakeInvariant(
      "P34", kOthers, "Appliance outlets are off when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && any("applianceOutlet", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P35", kOthers, "Lights are off when location mode is Away",
      R"(!(mode == "Away" && any("light", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P36", kOthers, "The speaker is not playing when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && any("speaker", "status") == "playing"))"));
  props.push_back(MakeInvariant(
      "P37", kOthers, "Lights are off when people are sleeping at night",
      R"(!(mode == "Night" && any("light", "switch") == "on"))"));
  props.push_back(MakeInvariant(
      "P38", kOthers,
      "Heating and cooling are off when no one is at home",
      R"(!(all("presence", "presence") == "notpresent"
          && (any("heaterOutlet", "switch") == "on"
              || any("acOutlet", "switch") == "on")))"));

  // --- Monitors (7) ------------------------------------------------------------
  props.push_back(Monitor(
      "P39", "Conflicting commands",
      "When a single external event happens, an actuator does not receive "
      "two conflicting commands",
      PropertyKind::kNoConflict));
  props.push_back(Monitor(
      "P40", "Repeated commands",
      "When a single external event happens, an actuator does not receive "
      "multiple repeated commands of the same type",
      PropertyKind::kNoRepeat));
  props.push_back(Monitor(
      "P41", "Information leakage",
      "Private information is sent out only via message interfaces, never "
      "via network interfaces",
      PropertyKind::kNoNetworkLeak));
  props.push_back(Monitor(
      "P42", "Information leakage",
      "SMS recipients match the configured phone numbers or contacts",
      PropertyKind::kSmsRecipient));
  props.push_back(Monitor(
      "P43", "Security-sensitive command",
      "Apps do not execute security-sensitive commands (unsubscribe)",
      PropertyKind::kNoSensitiveCmd));
  props.push_back(Monitor(
      "P44", "Security-sensitive command",
      "Apps do not inject fake device events",
      PropertyKind::kNoFakeEvent));
  props.push_back(Monitor(
      "P45", "Robustness",
      "Apps verify that actuator commands were executed and notify the "
      "user on device/communication failure",
      PropertyKind::kRobustness));
  return props;
}

}  // namespace

const std::vector<Property>& BuiltinProperties() {
  static const std::vector<Property>& props = *new std::vector<Property>(
      BuildBuiltins());
  return props;
}

const Property* FindBuiltinProperty(const std::string& id) {
  for (const Property& p : BuiltinProperties()) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

}  // namespace iotsan::props
