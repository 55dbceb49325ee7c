// Device instances.
//
// A Device is the static description of one installed physical device
// (its id, type, and role associations from the Configuration Extractor,
// paper §7).  Its mutable part — attribute values plus the online/offline
// failure flag (§8) — lives in the model checker's flat state vector
// (model/state.hpp), which the search snapshots and restores millions of
// times.
#pragma once

#include <string>
#include <vector>

#include "devices/device_type.hpp"

namespace iotsan::devices {

/// Static description of one installed device.
class Device {
 public:
  /// `roles` carries device-association info ("mainDoorLock",
  /// "heaterOutlet") used to bind safety properties (paper §7-§8).
  Device(std::string id, const DeviceTypeSpec& type,
         std::vector<std::string> roles = {});

  const std::string& id() const { return id_; }
  const DeviceTypeSpec& type() const { return *type_; }
  const std::vector<std::string>& roles() const { return roles_; }
  bool HasRole(const std::string& role) const;

  /// Flattened attribute list (stable order; indexes the device's cells
  /// in a model::SystemState).
  const std::vector<const AttributeSpec*>& attributes() const {
    return attributes_;
  }
  /// Index of `name` in attributes(); -1 if absent.
  int AttributeIndex(const std::string& name) const;

 private:
  std::string id_;
  const DeviceTypeSpec* type_;
  std::vector<std::string> roles_;
  std::vector<const AttributeSpec*> attributes_;
};

}  // namespace iotsan::devices
