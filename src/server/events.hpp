// Live introspection state for the verification service: the in-flight
// request table behind `GET /v1/status` and the publish/subscribe broker
// behind the `GET /v1/events` SSE stream.
//
// Both structures are deliberately tiny and lock-based — a check runs
// for seconds while a server check reports progress once per finished
// related set, so contention is negligible next to the search itself.
//
// Delivery model: subscribers each own a bounded queue.  A slow or
// stalled SSE client never blocks the checker — when its queue is full,
// the oldest *progress* event is dropped (progress ticks are snapshots;
// the next one supersedes them) while `verdict` events are kept, since a
// terminal event must not vanish under burst.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace iotsan::server {

/// One in-flight verification request, as `GET /v1/status` reports it.
struct InflightEntry {
  std::string request_id;
  std::string endpoint;     // "check" | "fleet_check"
  std::string deployment;   // deployment name from the request
  std::string fingerprint;  // deployment fingerprint (hex)
  std::uint64_t groups_total = 0;
  std::uint64_t groups_done = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t store_memory_bytes = 0;  // latest finished group's store
  double deadline_seconds = 0;           // 0 = none
  std::chrono::steady_clock::time_point started{};
};

/// Thread-safe request_id -> InflightEntry map shared by the session
/// threads and the /v1/status handler.
class InflightTable {
 public:
  void Register(const InflightEntry& entry);
  /// Applies one progress report; no-op when the id is gone (the
  /// request finished while the report was in flight).
  void Update(const std::string& request_id,
              const telemetry::Progress& progress);
  void Finish(const std::string& request_id);

  std::size_t size() const;

  /// JSON array of in-flight requests, one object per entry, with
  /// derived elapsed_seconds / states_per_second computed at read time.
  json::Array Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, InflightEntry> entries_;
};

/// One server-sent event (`event: <name>\ndata: <json>\n\n` on the wire).
struct Event {
  std::string name;  // "hello" | "progress" | "verdict"
  std::string data;  // one-line JSON document
};

/// Fan-out broker: every published event is copied into each live
/// subscriber's bounded queue.
class EventBroker {
 public:
  class Subscription {
   public:
    /// Blocks up to `wait_ms` for the next event; false on timeout.
    bool Next(Event& out, int wait_ms);
    /// Progress events discarded because this subscriber lagged.
    std::uint64_t dropped() const;

   private:
    friend class EventBroker;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Event> queue_;
    std::uint64_t dropped_ = 0;
  };

  std::shared_ptr<Subscription> Subscribe();
  void Unsubscribe(const std::shared_ptr<Subscription>& subscription);
  void Publish(const Event& event);
  std::size_t subscriber_count() const;

 private:
  /// Per-subscriber queue bound; beyond it the oldest non-verdict event
  /// is dropped first.
  static constexpr std::size_t kMaxQueued = 256;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Subscription>> subscribers_;
};

}  // namespace iotsan::server
