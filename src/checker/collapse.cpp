#include "checker/collapse.hpp"

#include <algorithm>
#include <bit>

namespace iotsan::checker {

namespace {

void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Accumulates bit-packed fields, flushing whole bytes; ByteAlign pads
/// the tail with zero bits so the following varints stay byte-aligned.
class BitPacker {
 public:
  explicit BitPacker(std::vector<std::uint8_t>& out) : out_(out) {}

  void Put(std::uint64_t value, unsigned bits) {
    acc_ |= value << used_;
    used_ += bits;
    while (used_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      used_ -= 8;
    }
  }

  void ByteAlign() {
    if (used_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      used_ = 0;
    }
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;
  unsigned used_ = 0;
};

}  // namespace

CollapseCodec::CollapseCodec(const model::SystemModel& model,
                             unsigned shard_count)
    : model_(model) {
  device_pools_.reserve(model.devices().size());
  device_index_bits_.reserve(model.devices().size());
  for (const devices::Device& device : model.devices()) {
    // Distinct sub-vectors: online flag x each attribute's (cyber,
    // physical) value pair — 2 * prod(domain^2), saturating at 2^32.
    std::uint64_t bound = 2;
    for (const auto* attr : device.attributes()) {
      const std::uint64_t domain =
          static_cast<std::uint64_t>(std::max(attr->domain_size(), 1));
      bound *= domain * domain;
      if (bound >= (std::uint64_t{1} << 32)) {
        bound = std::uint64_t{1} << 32;
        break;
      }
    }
    device_index_bits_.push_back(
        std::max(1u, static_cast<unsigned>(std::bit_width(bound - 1))));
    device_pools_.push_back(std::make_unique<InternPool>(shard_count));
  }
  for (int a = 0; a < static_cast<int>(model.apps().size()); ++a) {
    bool touches = false;
    for (const ir::HandlerInfo& handler :
         model.apps()[static_cast<std::size_t>(a)].analysis->handlers) {
      touches |= handler.touches_app_state;
    }
    if (touches) state_apps_.push_back(a);
  }
  app_state_pool_ = std::make_unique<InternPool>(shard_count);
  timer_pool_ = std::make_unique<InternPool>(shard_count);
}

void CollapseCodec::Encode(const model::SystemState& state,
                           std::vector<std::uint8_t>& out,
                           std::vector<std::uint8_t>& scratch) const {
  states_encoded_.fetch_add(1, std::memory_order_relaxed);
  BitPacker packer(out);
  for (int d = 0; d < static_cast<int>(device_pools_.size()); ++d) {
    scratch.clear();
    state.SerializeDeviceTo(d, scratch);
    const std::uint32_t index =
        device_pools_[static_cast<std::size_t>(d)]->Intern(scratch);
    packer.Put(index, device_index_bits_[static_cast<std::size_t>(d)]);
  }
  packer.ByteAlign();
  PutVarint(out, static_cast<std::uint16_t>(state.mode));
  for (int a : state_apps_) {
    scratch.clear();
    state.SerializeAppStateTo(a, scratch);
    PutVarint(out, app_state_pool_->Intern(scratch));
  }
  scratch.clear();
  state.SerializeTimersTo(scratch);
  PutVarint(out, timer_pool_->Intern(scratch));
}

std::uint64_t CollapseCodec::pool_entries() const {
  std::uint64_t total = app_state_pool_->size() + timer_pool_->size();
  for (const auto& pool : device_pools_) total += pool->size();
  return total;
}

std::uint64_t CollapseCodec::pool_bytes() const {
  std::uint64_t total = app_state_pool_->memory_bytes() +
                        timer_pool_->memory_bytes();
  for (const auto& pool : device_pools_) total += pool->memory_bytes();
  return total;
}

std::uint64_t CollapseCodec::lookups() const {
  std::uint64_t total = app_state_pool_->lookups() + timer_pool_->lookups();
  for (const auto& pool : device_pools_) total += pool->lookups();
  return total;
}

std::uint64_t CollapseCodec::hits() const {
  std::uint64_t total = app_state_pool_->hits() + timer_pool_->hits();
  for (const auto& pool : device_pools_) total += pool->hits();
  return total;
}

}  // namespace iotsan::checker
