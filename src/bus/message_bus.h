// Topic-based publish/subscribe message bus (Fig 2's "message bus").
//
// The frontend publishes weave/unweave commands on a command topic that every
// PT agent subscribes to; agents publish partial query results on a report
// topic the frontend subscribes to. Delivery is synchronous and in
// subscription order, which keeps the simulator deterministic; the bus is
// nevertheless thread-safe so real multi-threaded deployments can share one.

#ifndef PIVOT_SRC_BUS_MESSAGE_BUS_H_
#define PIVOT_SRC_BUS_MESSAGE_BUS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pivot {

struct BusMessage {
  std::string topic;
  std::vector<uint8_t> payload;
};

// Well-known topics used by the Pivot Tracing control plane.
inline constexpr char kCommandTopic[] = "pivottracing/commands";
inline constexpr char kReportTopic[] = "pivottracing/reports";

// Per-topic traffic accounting (docs/OBSERVABILITY.md): the bus's only
// traffic counts, which the telemetry registry does not repeat. Snapshots are
// taken under the bus lock, so counts within one topic are mutually
// consistent.
struct TopicStats {
  std::string topic;
  uint64_t published = 0;       // Publish calls on this topic.
  uint64_t delivered = 0;       // Callback invocations.
  uint64_t bytes = 0;           // Payload bytes published.
  uint64_t no_subscriber = 0;   // Publishes that reached nobody: on a control
                                // topic, a dead or missing agent or frontend.
  uint64_t subscribers = 0;     // Current subscription count.
};

class MessageBus {
 public:
  using SubscriberId = uint64_t;
  using Callback = std::function<void(const BusMessage&)>;

  MessageBus() = default;
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  // Registers `callback` for messages on `topic`. The returned id cancels the
  // subscription via Unsubscribe.
  SubscriberId Subscribe(std::string topic, Callback callback);
  void Unsubscribe(SubscriberId id);

  // Delivers `msg` synchronously to every current subscriber of its topic, in
  // subscription order. Callbacks run without the bus lock held, so they may
  // publish or (un)subscribe reentrantly.
  void Publish(BusMessage msg);

  // Per-topic accounting, sorted by topic name: the bus's only totals. A
  // bus-wide count is the sum over its topics; Frontend::StatusReport prints
  // this snapshot.
  std::vector<TopicStats> TopicSnapshot() const;

 private:
  struct Subscriber {
    SubscriberId id;
    std::shared_ptr<Callback> callback;
  };

  struct TopicCounters {
    uint64_t published = 0;
    uint64_t delivered = 0;
    uint64_t bytes = 0;
    uint64_t no_subscriber = 0;
  };

  mutable std::mutex mu_;
  SubscriberId next_id_ = 1;
  std::map<std::string, std::vector<Subscriber>> topics_;
  // id -> topic, recorded at Subscribe so Unsubscribe is a direct topic
  // lookup instead of a scan over every topic's subscriber list.
  std::map<SubscriberId, std::string> subscriber_topics_;
  std::map<std::string, TopicCounters> counters_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_BUS_MESSAGE_BUS_H_
