#include "src/bus/message_bus.h"

#include "src/common/clock.h"
#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

// Subscriber callback wall time. Traffic counts are kept per topic only
// (TopicSnapshot); the telemetry registry holds no copy of them.
telemetry::Histogram& CallbackNanosHistogram() {
  static telemetry::Histogram& h = telemetry::Metrics().GetHistogram("bus.callback_nanos");
  return h;
}

}  // namespace

MessageBus::SubscriberId MessageBus::Subscribe(std::string topic, Callback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  SubscriberId id = next_id_++;
  subscriber_topics_.emplace(id, topic);
  topics_[std::move(topic)].push_back(
      Subscriber{id, std::make_shared<Callback>(std::move(callback))});
  return id;
}

void MessageBus::Unsubscribe(SubscriberId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto rec = subscriber_topics_.find(id);
  if (rec == subscriber_topics_.end()) {
    return;  // Unknown or already-cancelled id.
  }
  auto topic_it = topics_.find(rec->second);
  subscriber_topics_.erase(rec);
  if (topic_it == topics_.end()) {
    return;
  }
  std::vector<Subscriber>& subs = topic_it->second;
  for (auto it = subs.begin(); it != subs.end(); ++it) {
    if (it->id == id) {
      subs.erase(it);
      return;
    }
  }
}

void MessageBus::Publish(BusMessage msg) {
  // Snapshot subscribers so callbacks can mutate subscriptions reentrantly.
  std::vector<std::shared_ptr<Callback>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TopicCounters& tc = counters_[msg.topic];
    ++tc.published;
    tc.bytes += msg.payload.size();
    auto it = topics_.find(msg.topic);
    if (it != topics_.end() && !it->second.empty()) {
      callbacks.reserve(it->second.size());
      for (const auto& sub : it->second) {
        callbacks.push_back(sub.callback);
      }
    } else {
      // Nobody listening: the message is silently lost. Count it — on a
      // control topic this is the signature of a dead agent or frontend.
      ++tc.no_subscriber;
    }
  }
  uint64_t deliveries = 0;
  for (const auto& cb : callbacks) {
    int64_t start = MonotonicNanos();
    (*cb)(msg);
    CallbackNanosHistogram().Observe(static_cast<uint64_t>(MonotonicNanos() - start));
    ++deliveries;
  }
  if (deliveries > 0) {
    // One lock acquisition for the whole fan-out, not one per callback.
    std::lock_guard<std::mutex> lock(mu_);
    counters_[msg.topic].delivered += deliveries;
  }
}

std::vector<TopicStats> MessageBus::TopicSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TopicStats> out;
  out.reserve(counters_.size());
  for (const auto& [topic, tc] : counters_) {
    TopicStats row;
    row.topic = topic;
    row.published = tc.published;
    row.delivered = tc.delivered;
    row.bytes = tc.bytes;
    row.no_subscriber = tc.no_subscriber;
    auto it = topics_.find(topic);
    row.subscribers = it == topics_.end() ? 0 : it->second.size();
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace pivot
