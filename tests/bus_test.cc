#include <gtest/gtest.h>

#include <thread>

#include "src/bus/message_bus.h"

namespace pivot {
namespace {

TEST(MessageBusTest, DeliversToSubscribers) {
  MessageBus bus;
  int received = 0;
  bus.Subscribe("t", [&](const BusMessage& msg) {
    ++received;
    EXPECT_EQ(msg.payload, (std::vector<uint8_t>{1, 2, 3}));
  });
  bus.Publish(BusMessage{"t", {1, 2, 3}});
  EXPECT_EQ(received, 1);
  auto topics = bus.TopicSnapshot();
  ASSERT_EQ(topics.size(), 1u);
  EXPECT_EQ(topics[0].published, 1u);
  EXPECT_EQ(topics[0].delivered, 1u);
}

TEST(MessageBusTest, TopicIsolation) {
  MessageBus bus;
  int a = 0;
  int b = 0;
  bus.Subscribe("a", [&](const BusMessage&) { ++a; });
  bus.Subscribe("b", [&](const BusMessage&) { ++b; });
  bus.Publish(BusMessage{"a", {}});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
}

TEST(MessageBusTest, MultipleSubscribersInOrder) {
  MessageBus bus;
  std::vector<int> order;
  bus.Subscribe("t", [&](const BusMessage&) { order.push_back(1); });
  bus.Subscribe("t", [&](const BusMessage&) { order.push_back(2); });
  bus.Publish(BusMessage{"t", {}});
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MessageBusTest, UnsubscribeStopsDelivery) {
  MessageBus bus;
  int received = 0;
  auto id = bus.Subscribe("t", [&](const BusMessage&) { ++received; });
  bus.Publish(BusMessage{"t", {}});
  bus.Unsubscribe(id);
  bus.Publish(BusMessage{"t", {}});
  EXPECT_EQ(received, 1);
}

TEST(MessageBusTest, UnsubscribeTargetsOnlyItsOwnTopicAndId) {
  // Unsubscribe resolves id -> topic directly; with many topics alive it must
  // remove exactly the cancelled subscription, leave siblings on the same
  // topic intact, and tolerate double-unsubscribe and unknown ids.
  MessageBus bus;
  int a = 0, b = 0, c = 0;
  bus.Subscribe("t1", [&](const BusMessage&) { ++a; });
  auto id_b = bus.Subscribe("t2", [&](const BusMessage&) { ++b; });
  bus.Subscribe("t2", [&](const BusMessage&) { ++c; });

  bus.Unsubscribe(id_b);
  bus.Unsubscribe(id_b);    // Double-unsubscribe: no-op.
  bus.Unsubscribe(999999);  // Never-issued id: no-op.

  bus.Publish(BusMessage{"t1", {}});
  bus.Publish(BusMessage{"t2", {}});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(c, 1);
}

TEST(MessageBusTest, PublishWithNoSubscribersIsFine) {
  MessageBus bus;
  bus.Publish(BusMessage{"nobody", {9}});
  auto topics = bus.TopicSnapshot();
  ASSERT_EQ(topics.size(), 1u);
  EXPECT_EQ(topics[0].published, 1u);
  EXPECT_EQ(topics[0].delivered, 0u);
  EXPECT_EQ(topics[0].no_subscriber, 1u);
}

TEST(MessageBusTest, TopicSnapshotCountsPerTopicTraffic) {
  MessageBus bus;
  bus.Subscribe("sub", [](const BusMessage&) {});
  bus.Subscribe("sub", [](const BusMessage&) {});
  bus.Publish(BusMessage{"sub", {1, 2, 3}});
  bus.Publish(BusMessage{"sub", {4}});
  bus.Publish(BusMessage{"void", {5, 6}});

  auto topics = bus.TopicSnapshot();
  ASSERT_EQ(topics.size(), 2u);  // Sorted by topic name.
  EXPECT_EQ(topics[0].topic, "sub");
  EXPECT_EQ(topics[0].published, 2u);
  EXPECT_EQ(topics[0].delivered, 4u);  // Two messages x two subscribers.
  EXPECT_EQ(topics[0].bytes, 4u);
  EXPECT_EQ(topics[0].no_subscriber, 0u);
  EXPECT_EQ(topics[0].subscribers, 2u);
  EXPECT_EQ(topics[1].topic, "void");
  EXPECT_EQ(topics[1].published, 1u);
  EXPECT_EQ(topics[1].delivered, 0u);
  EXPECT_EQ(topics[1].no_subscriber, 1u);
  EXPECT_EQ(topics[1].subscribers, 0u);
}

TEST(MessageBusTest, ReentrantPublishFromCallback) {
  MessageBus bus;
  int second = 0;
  bus.Subscribe("first", [&](const BusMessage&) { bus.Publish(BusMessage{"second", {}}); });
  bus.Subscribe("second", [&](const BusMessage&) { ++second; });
  bus.Publish(BusMessage{"first", {}});
  EXPECT_EQ(second, 1);
}

TEST(MessageBusTest, ReentrantSubscribeFromCallback) {
  MessageBus bus;
  int late = 0;
  bus.Subscribe("t", [&](const BusMessage&) {
    if (late == 0) {
      bus.Subscribe("t", [&](const BusMessage&) { ++late; });
    }
  });
  bus.Publish(BusMessage{"t", {}});  // New subscriber not called for this one.
  EXPECT_EQ(late, 0);
  bus.Publish(BusMessage{"t", {}});
  EXPECT_EQ(late, 1);
}

TEST(MessageBusTest, ConcurrentPublishersAreSafe) {
  MessageBus bus;
  std::atomic<int> received{0};
  bus.Subscribe("t", [&](const BusMessage&) { received.fetch_add(1); });
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&bus] {
      for (int j = 0; j < 100; ++j) {
        bus.Publish(BusMessage{"t", {}});
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(received.load(), 400);
}

}  // namespace
}  // namespace pivot
