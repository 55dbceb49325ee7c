// The model checker's state vector (paper §8).
//
// A SystemState captures everything the generated Promela model would
// hold in global variables: every device's attribute values and
// availability, the location mode, each app's persistent `state` map, and
// pending one-shot timers.  States are snapshotted/restored by the DFS
// and serialized to bytes for hashing (exhaustive or BITSTATE storage).
//
// The device part is one flat array of int16 cells, so copying a state
// copies one buffer however many devices the model has.  Where each
// device's cells sit is a StateLayout that the SystemModel computes once
// and every state it makes points at.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "devices/device.hpp"
#include "model/value.hpp"

namespace iotsan::model {

/// A pending one-shot timer created by runIn()/runOnce().
struct TimerEntry {
  int app = 0;       // owning app index
  int schedule = 0;  // index into the app's schedule list
  bool operator==(const TimerEntry&) const = default;
};

/// Where each device's cells sit in SystemState::cells.  A device's block
/// is its online flag (1 or 0), then each attribute's cyber value index,
/// then each attribute's physical value index, in attributes() order.
///
/// The cyber value is what the platform and apps see; the physical one
/// is the ground truth of the physical space.  The two diverge exactly
/// when a device/communication failure makes a sensor miss a physical
/// event (paper §8/§10.2): the temperature really dropped but the offline
/// sensor still reports the old reading.  Safety properties are
/// statements about the physical space (§3), so the checker evaluates
/// them over the physical cells; apps read the cyber ones.
class StateLayout {
 public:
  explicit StateLayout(const std::vector<devices::Device>& devices);

  int device_count() const { return static_cast<int>(blocks_.size()); }
  std::size_t cell_count() const { return cell_count_; }

  std::size_t online(int device) const { return block(device).begin; }
  std::size_t value(int device, int attribute) const {
    return block(device).begin + 1 + static_cast<std::size_t>(attribute);
  }
  std::size_t physical(int device, int attribute) const {
    const Block& b = block(device);
    return b.begin + 1 + b.attributes + static_cast<std::size_t>(attribute);
  }
  /// Cells of `device` after its online flag: values, then readings.
  std::size_t attribute_cells(int device) const {
    return 2 * block(device).attributes;
  }

 private:
  struct Block {
    std::size_t begin = 0;  // the online flag's cell
    std::size_t attributes = 0;
  };

  const Block& block(int device) const {
    return blocks_[static_cast<std::size_t>(device)];
  }

  std::vector<Block> blocks_;
  std::size_t cell_count_ = 0;
};

struct SystemState {
  /// Longest string and largest map or timer list a state may hold: the
  /// serialization prefixes each with a 16-bit length.
  static constexpr std::size_t kMaxLength = 0xFFFF;

  /// The model's layout of `cells`, shared by every state it makes.
  const StateLayout* layout = nullptr;
  /// Every device's block, in device order (see StateLayout).
  std::vector<std::int16_t> cells;
  std::int16_t mode = 0;
  /// Per-app persistent `state` map.  Values must be scalars (null, bool,
  /// number, string) — the evaluator enforces this so states hash
  /// deterministically.
  std::vector<std::map<std::string, Value>> app_state;
  std::vector<TimerEntry> timers;

  bool online(int device) const {
    return cells[layout->online(device)] != 0;
  }
  void set_online(int device, bool online) {
    cells[layout->online(device)] = online ? 1 : 0;
  }
  /// Cyber value index of a device attribute.
  std::int16_t value(int device, int attribute) const {
    return cells[layout->value(device, attribute)];
  }
  std::int16_t& value(int device, int attribute) {
    return cells[layout->value(device, attribute)];
  }
  /// Physical value index of a device attribute.
  std::int16_t physical(int device, int attribute) const {
    return cells[layout->physical(device, attribute)];
  }
  std::int16_t& physical(int device, int attribute) {
    return cells[layout->physical(device, attribute)];
  }

  /// Appends a canonical byte serialization to `out` (for hashing).
  /// Throws iotsan::Error for a non-scalar app-state value and for a
  /// string, map or timer list longer than kMaxLength.
  void SerializeTo(std::vector<std::uint8_t>& out) const;

  /// Canonical byte serialization.
  std::vector<std::uint8_t> Serialize() const;

  /// Component serializers for COLLAPSE state compression: each appends
  /// the exact byte run SerializeTo() emits for that component, so
  /// concatenating device 0..n-1, mode, app-state 0..m-1, timers
  /// reproduces the full serialization byte-for-byte.
  void SerializeDeviceTo(int device, std::vector<std::uint8_t>& out) const;
  void SerializeModeTo(std::vector<std::uint8_t>& out) const;
  void SerializeAppStateTo(int app, std::vector<std::uint8_t>& out) const;
  void SerializeTimersTo(std::vector<std::uint8_t>& out) const;

  bool operator==(const SystemState&) const = default;
};

}  // namespace iotsan::model
