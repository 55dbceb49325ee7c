#include "model/state.hpp"

#include <span>

#include "util/error.hpp"

namespace iotsan::model {

namespace {

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

/// A 16-bit length prefix.  A longer run would wrap around and give two
/// different states one key, so it is an error.
void PutLength(std::vector<std::uint8_t>& out, std::size_t length,
               const char* what) {
  if (length > SystemState::kMaxLength) {
    throw Error(std::string(what) + " length " + std::to_string(length) +
                " exceeds the state vector's limit of " +
                std::to_string(SystemState::kMaxLength));
  }
  PutU16(out, static_cast<std::uint16_t>(length));
}

void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  PutLength(out, s.size(), "app `state` string");
  out.insert(out.end(), s.begin(), s.end());
}

/// The cells' bytes in one append, in host byte order as PutScalar
/// writes doubles: keys are only hashed and compared in this process.
void PutCells(std::vector<std::uint8_t>& out,
              std::span<const std::int16_t> cells) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(cells.data());
  out.insert(out.end(), bytes, bytes + cells.size_bytes());
}

void PutScalar(std::vector<std::uint8_t>& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out.push_back(0);
      break;
    case Value::Kind::kBool:
      out.push_back(1);
      out.push_back(v.AsBool() ? 1 : 0);
      break;
    case Value::Kind::kNumber: {
      out.push_back(2);
      const double d = v.AsNumber();
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(&d);
      out.insert(out.end(), bytes, bytes + sizeof(double));
      break;
    }
    case Value::Kind::kString:
      out.push_back(3);
      PutString(out, v.AsString());
      break;
    default:
      throw Error(
          "app `state` may only hold scalar values (null/bool/number/"
          "string); got " + v.ToDisplayString());
  }
}

}  // namespace

StateLayout::StateLayout(const std::vector<devices::Device>& devices) {
  blocks_.reserve(devices.size());
  for (const devices::Device& device : devices) {
    const Block block{cell_count_, device.attributes().size()};
    blocks_.push_back(block);
    cell_count_ += 1 + 2 * block.attributes;
  }
}

void SystemState::SerializeDeviceTo(int device,
                                    std::vector<std::uint8_t>& out) const {
  const std::size_t online_cell = layout->online(device);
  out.push_back(cells[online_cell] != 0 ? 1 : 0);
  PutCells(out, std::span<const std::int16_t>(cells).subspan(
                    online_cell + 1, layout->attribute_cells(device)));
}

void SystemState::SerializeModeTo(std::vector<std::uint8_t>& out) const {
  PutU16(out, static_cast<std::uint16_t>(mode));
}

void SystemState::SerializeAppStateTo(int app,
                                      std::vector<std::uint8_t>& out) const {
  const auto& state_map = app_state[static_cast<std::size_t>(app)];
  PutLength(out, state_map.size(), "app `state` map");
  for (const auto& [key, value] : state_map) {  // std::map: sorted keys
    PutString(out, key);
    PutScalar(out, value);
  }
}

void SystemState::SerializeTimersTo(std::vector<std::uint8_t>& out) const {
  PutLength(out, timers.size(), "pending timer list");
  for (const TimerEntry& timer : timers) {
    PutU16(out, static_cast<std::uint16_t>(timer.app));
    PutU16(out, static_cast<std::uint16_t>(timer.schedule));
  }
}

void SystemState::SerializeTo(std::vector<std::uint8_t>& out) const {
  for (int i = 0; i < layout->device_count(); ++i) {
    SerializeDeviceTo(i, out);
  }
  SerializeModeTo(out);
  for (int i = 0; i < static_cast<int>(app_state.size()); ++i) {
    SerializeAppStateTo(i, out);
  }
  SerializeTimersTo(out);
}

std::vector<std::uint8_t> SystemState::Serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  SerializeTo(out);
  return out;
}

}  // namespace iotsan::model
