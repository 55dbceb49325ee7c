// Visited-state stores (paper §2.3).
//
// The checker prunes states it has already expanded.  Two storage
// strategies are provided, mirroring Spin:
//   * ExhaustiveStore — keeps full serialized state vectors; exact, but
//     memory grows with the state space.
//   * BitstateStore — Spin's BITSTATE hashing: k hash functions set bits
//     in a fixed bit field.  False positives ("seen" for a new state) are
//     possible, trading completeness for constant memory; the paper uses
//     this mode for large systems.
//
// Both stores support concurrent TestAndInsert so parallel search
// workers can share one pruning frontier: the exhaustive store shards
// its hash set (one mutex per shard, shard picked from the state hash),
// the bitstate store is lock-free (atomic fetch_or on the bit field).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/bitarray.hpp"

namespace iotsan::checker {

class StateStore {
 public:
  virtual ~StateStore() = default;

  /// Records `bytes`; returns true if it was (possibly) seen before.
  /// Safe to call from multiple threads concurrently.
  virtual bool TestAndInsert(std::span<const std::uint8_t> bytes) = 0;

  /// Number of distinct states recorded (exact for exhaustive; equals the
  /// number of inserts that were new for bitstate).
  virtual std::uint64_t size() const = 0;

  /// Bytes of memory used by the store (approximate for exhaustive).
  virtual std::uint64_t memory_bytes() const = 0;

  /// Fraction of the store's fixed capacity in use: bit occupancy for
  /// BITSTATE, 0 for the unbounded exhaustive store.
  virtual double FillRatio() const { return 0; }

  /// Estimated probability that TestAndInsert misreported a genuinely
  /// new state as seen (Spin's -w omission concern).  Exact stores never
  /// omit, so the base answer is 0.
  virtual double EstOmissionProbability() const { return 0; }
};

/// Key bytes with their FNV-1a hash.  The stores hash a key once per
/// probe and use that hash for the shard, the bucket and a fast mismatch
/// test; `Bytes` owns the bytes (std::string) or views them.
template <typename Bytes>
struct HashedKey {
  std::uint64_t hash = 0;
  Bytes bytes;
};

/// The stored hash, so neither lookup, insert nor rehash hashes twice.
struct HashedKeyHash {
  using is_transparent = void;
  template <typename Bytes>
  std::size_t operator()(const HashedKey<Bytes>& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

struct HashedKeyEqual {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const HashedKey<A>& a,
                  const HashedKey<B>& b) const noexcept {
    return a.hash == b.hash &&
           std::string_view(a.bytes) == std::string_view(b.bytes);
  }
};

class ExhaustiveStore final : public StateStore {
 public:
  /// `shard_count` hash-set shards, each behind its own mutex; the shard
  /// is chosen from the top bits of the state hash so it stays
  /// independent of the bucket index within the shard.  1 shard = the
  /// classic single-set store (still thread-safe, just contended).
  explicit ExhaustiveStore(unsigned shard_count = 1);

  bool TestAndInsert(std::span<const std::uint8_t> bytes) override;
  std::uint64_t size() const override;
  std::uint64_t memory_bytes() const override;

 private:
  // Transparent lookup lets TestAndInsert probe with a view of the
  // caller's buffer; only genuinely new states pay the std::string
  // allocation.
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_set<HashedKey<std::string>, HashedKeyHash, HashedKeyEqual>
        states;
    std::uint64_t memory = 0;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Arena-backed byte-vector interning for COLLAPSE state compression
/// (Spin's -DCOLLAPSE): each distinct component serialization (one
/// device's sub-vector, one app's `state` map, the timer list) is stored
/// once and addressed by a dense index, so a stored state shrinks to a
/// short tuple of pool indices.
///
/// Thread-safe like ExhaustiveStore: the shard is picked from the top
/// bits of the component hash, each shard guards its map with a mutex,
/// and interned bytes live in per-shard bump-allocated arena blocks
/// (stable addresses — the map keys are views into the arenas).  Indices
/// are dense (one shared counter) and stable for the pool's lifetime but
/// NOT deterministic across runs or thread schedules; store keys built
/// from them are only compared within one run, which is all the visited
/// set needs.
class InternPool {
 public:
  explicit InternPool(unsigned shard_count = 1);

  /// Index of `bytes`, interning a copy on first sight.  Equal byte
  /// vectors always yield the same index; distinct vectors never share
  /// one.
  std::uint32_t Intern(std::span<const std::uint8_t> bytes);

  /// Distinct entries interned.
  std::uint64_t size() const;
  /// Arena bytes plus per-entry index overhead.
  std::uint64_t memory_bytes() const;
  std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Lookups served by an existing entry.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<HashedKey<std::string_view>, std::uint32_t,
                       HashedKeyHash, HashedKeyEqual>
        entries;
    /// Bump arenas owning the key bytes (block addresses never move).
    std::vector<std::unique_ptr<std::uint8_t[]>> blocks;
    std::size_t block_used = 0;
    std::size_t block_size = 0;
    std::uint64_t memory = 0;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint32_t> next_index_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
};

class BitstateStore final : public StateStore {
 public:
  /// `bit_count` is the size of the bit field (Spin's -w); `hash_count`
  /// the number of hash functions (Spin's default is 3).
  explicit BitstateStore(std::size_t bit_count, unsigned hash_count = 3);

  bool TestAndInsert(std::span<const std::uint8_t> bytes) override;
  std::uint64_t size() const override {
    return inserted_.load(std::memory_order_relaxed);
  }
  std::uint64_t memory_bytes() const override { return bits_.size() / 8; }

  /// Fraction of bits set; occupancy above ~0.5 means heavy hash
  /// saturation and unreliable pruning.
  double Occupancy() const;

  double FillRatio() const override { return Occupancy(); }

  /// With fraction p of bits set and k independent hash functions, a new
  /// state is falsely reported as seen only when all k probed bits are
  /// already set: p^k under uniform hashing.  Above p ≈ 0.5 the estimate
  /// (and hence coverage claims) becomes unreliable — Spin's rule of
  /// thumb for growing -w.
  double EstOmissionProbability() const override;

 private:
  BitArray bits_;
  unsigned hash_count_;
  std::atomic<std::uint64_t> inserted_{0};
};

}  // namespace iotsan::checker
