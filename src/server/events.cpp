#include "server/events.hpp"

#include <algorithm>

namespace iotsan::server {

void InflightTable::Register(const InflightEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[entry.request_id] = entry;
}

void InflightTable::Update(const std::string& request_id,
                           const telemetry::Progress& progress) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(request_id);
  if (it == entries_.end()) return;
  it->second.groups_total = progress.groups_total;
  it->second.groups_done = progress.groups_done;
  it->second.states_explored = progress.states_explored;
  it->second.store_memory_bytes = progress.store_memory_bytes;
}

void InflightTable::Finish(const std::string& request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.erase(request_id);
}

std::size_t InflightTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

json::Array InflightTable::Snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  json::Array out;
  for (const auto& [id, entry] : entries_) {
    const double elapsed =
        std::chrono::duration<double>(now - entry.started).count();
    json::Object doc;
    doc["request_id"] = entry.request_id;
    doc["endpoint"] = entry.endpoint;
    doc["deployment"] = entry.deployment;
    doc["fingerprint"] = entry.fingerprint;
    doc["groups_total"] = static_cast<std::int64_t>(entry.groups_total);
    doc["groups_done"] = static_cast<std::int64_t>(entry.groups_done);
    doc["states_explored"] =
        static_cast<std::int64_t>(entry.states_explored);
    doc["store_memory_bytes"] =
        static_cast<std::int64_t>(entry.store_memory_bytes);
    doc["elapsed_seconds"] = elapsed;
    doc["states_per_second"] =
        elapsed > 0 ? static_cast<double>(entry.states_explored) / elapsed
                    : 0.0;
    doc["deadline_seconds"] = entry.deadline_seconds;
    out.push_back(json::Value(std::move(doc)));
  }
  return out;
}

bool EventBroker::Subscription::Next(Event& out, int wait_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
               [this] { return !queue_.empty(); });
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

std::uint64_t EventBroker::Subscription::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::shared_ptr<EventBroker::Subscription> EventBroker::Subscribe() {
  auto subscription = std::make_shared<Subscription>();
  std::lock_guard<std::mutex> lock(mutex_);
  subscribers_.push_back(subscription);
  return subscription;
}

void EventBroker::Unsubscribe(
    const std::shared_ptr<Subscription>& subscription) {
  std::lock_guard<std::mutex> lock(mutex_);
  subscribers_.erase(
      std::remove(subscribers_.begin(), subscribers_.end(), subscription),
      subscribers_.end());
}

void EventBroker::Publish(const Event& event) {
  // Copy the subscriber list out so a slow subscriber's queue lock is
  // never held under the broker lock.
  std::vector<std::shared_ptr<Subscription>> subscribers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    subscribers = subscribers_;
  }
  for (const auto& subscription : subscribers) {
    {
      std::lock_guard<std::mutex> lock(subscription->mutex_);
      if (subscription->queue_.size() >= kMaxQueued) {
        // Shed the oldest superseded progress tick; keep verdicts.
        auto victim = std::find_if(
            subscription->queue_.begin(), subscription->queue_.end(),
            [](const Event& e) { return e.name != "verdict"; });
        if (victim != subscription->queue_.end()) {
          subscription->queue_.erase(victim);
        } else {
          subscription->queue_.pop_front();
        }
        ++subscription->dropped_;
      }
      subscription->queue_.push_back(event);
    }
    subscription->cv_.notify_one();
  }
}

std::size_t EventBroker::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subscribers_.size();
}

}  // namespace iotsan::server
