#include "model/state_view.hpp"

namespace iotsan::model {

std::vector<int> ModelStateView::DevicesWithRole(
    const std::string& role) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < model_.devices().size(); ++i) {
    if (model_.devices()[i].HasRole(role)) out.push_back(static_cast<int>(i));
  }
  return out;
}

// Safety properties are statements about the *physical* space (§3), so
// both readers evaluate the physical ground truth; it diverges from the
// cyber reading only when a failure made a sensor miss an event.

std::optional<std::string> ModelStateView::AttributeValue(
    int device, const std::string& attr) const {
  const devices::Device& dev = model_.devices()[device];
  const int index = dev.AttributeIndex(attr);
  if (index < 0) return std::nullopt;
  return dev.attributes()[index]->ValueName(state_.physical(device, index));
}

std::optional<double> ModelStateView::NumericValue(
    int device, const std::string& attr) const {
  const devices::Device& dev = model_.devices()[device];
  const int index = dev.AttributeIndex(attr);
  if (index < 0) return std::nullopt;
  const devices::AttributeSpec& spec = *dev.attributes()[index];
  if (spec.kind != devices::AttributeKind::kNumeric) return std::nullopt;
  return spec.NumericAt(state_.physical(device, index));
}

std::string ModelStateView::LocationMode() const {
  return model_.modes()[state_.mode];
}

bool ModelStateView::DeviceOnline(int device) const {
  return state_.online(device);
}

}  // namespace iotsan::model
