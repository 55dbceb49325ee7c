#include "checker/state_store.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace iotsan::checker {

namespace {

HashedKey<std::string_view> Hashed(std::span<const std::uint8_t> bytes) {
  return {hash::Fnv1a64(bytes),
          std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size())};
}

}  // namespace

ExhaustiveStore::ExhaustiveStore(unsigned shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ExhaustiveStore::TestAndInsert(std::span<const std::uint8_t> bytes) {
  const HashedKey<std::string_view> key = Hashed(bytes);
  // Shard from the top hash bits: unordered_set buckets consume the low
  // bits, so the two stay uncorrelated.
  Shard& shard = *shards_[(key.hash >> 32) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.states.find(key) != shard.states.end()) return true;
  shard.states.insert({key.hash, std::string(key.bytes)});
  shard.memory += bytes.size() + sizeof(void*) * 2;
  return false;
}

std::uint64_t ExhaustiveStore::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->states.size();
  }
  return total;
}

std::uint64_t ExhaustiveStore::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->memory;
  }
  return total;
}

InternPool::InternPool(unsigned shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::uint32_t InternPool::Intern(std::span<const std::uint8_t> bytes) {
  const HashedKey<std::string_view> key = Hashed(bytes);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = *shards_[(key.hash >> 32) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Copy the component into the shard's bump arena; addresses are stable
  // so the map can key on a view into it.  Blocks grow geometrically from
  // 256 B so the many small pools of a COLLAPSE codec stay cheap.  An
  // empty first run still needs a block for `dest` to point into.
  if (shard.blocks.empty() ||
      shard.block_used + bytes.size() > shard.block_size) {
    shard.block_size = std::max<std::size_t>(
        shard.block_size == 0 ? 256
                              : std::min<std::size_t>(shard.block_size * 2,
                                                      std::size_t{1} << 16),
        bytes.size());
    shard.blocks.push_back(std::make_unique<std::uint8_t[]>(shard.block_size));
    shard.block_used = 0;
    shard.memory += shard.block_size;
  }
  std::uint8_t* dest = shard.blocks.back().get() + shard.block_used;
  std::copy(bytes.begin(), bytes.end(), dest);
  shard.block_used += bytes.size();
  const std::uint32_t index =
      next_index_.fetch_add(1, std::memory_order_relaxed);
  shard.entries.emplace(
      HashedKey<std::string_view>{
          key.hash,
          std::string_view(reinterpret_cast<const char*>(dest), bytes.size())},
      index);
  shard.memory += sizeof(void*) * 2 + sizeof(std::uint32_t);
  return index;
}

std::uint64_t InternPool::size() const {
  return next_index_.load(std::memory_order_relaxed);
}

std::uint64_t InternPool::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->memory;
  }
  return total;
}

BitstateStore::BitstateStore(std::size_t bit_count, unsigned hash_count)
    : bits_(bit_count), hash_count_(hash_count == 0 ? 1 : hash_count) {}

bool BitstateStore::TestAndInsert(std::span<const std::uint8_t> bytes) {
  // One pass over the state bytes yields the base hash; the k probe
  // positions are h1 + i*h2 (Kirsch-Mitzenmacher), with the two derived
  // hashes hoisted out of the probe loop.
  const hash::DoubleHash dh = hash::MakeDoubleHash(hash::Fnv1a64(bytes));
  bool seen = true;
  std::uint64_t probe = dh.h1;
  for (unsigned i = 0; i < hash_count_; ++i, probe += dh.h2) {
    seen &= bits_.TestAndSet(probe);
  }
  if (!seen) inserted_.fetch_add(1, std::memory_order_relaxed);
  return seen;
}

double BitstateStore::Occupancy() const {
  return static_cast<double>(bits_.PopCount()) /
         static_cast<double>(bits_.size());
}

double BitstateStore::EstOmissionProbability() const {
  double p = 1;
  const double fill = Occupancy();
  for (unsigned i = 0; i < hash_count_; ++i) p *= fill;
  return p;
}

}  // namespace iotsan::checker
