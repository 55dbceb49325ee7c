#include "devices/device.hpp"

namespace iotsan::devices {

Device::Device(std::string id, const DeviceTypeSpec& type,
               std::vector<std::string> roles)
    : id_(std::move(id)), type_(&type), roles_(std::move(roles)) {
  attributes_ = type.Attributes();
}

bool Device::HasRole(const std::string& role) const {
  for (const std::string& r : roles_) {
    if (r == role) return true;
  }
  return false;
}

int Device::AttributeIndex(const std::string& name) const {
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace iotsan::devices
