// BoundedEventLog: the controller's event-log ring buffer. The bound caps
// retained memory on long runs; committed() keeps the all-time count the
// phase driver and metrics mirror rely on, eviction-proof.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "online/joint_controller.h"

namespace pathix {
namespace {

TEST(BoundedEventLogTest, UnboundedByDefault) {
  BoundedEventLog<int> log;
  for (int i = 0; i < 5000; ++i) log.Append(i);
  EXPECT_EQ(log.events().size(), 5000u);
  EXPECT_EQ(log.committed(), 5000u);
  EXPECT_EQ(log.evicted(), 0u);
  EXPECT_EQ(log.events().front(), 0);
}

TEST(BoundedEventLogTest, EvictsOldestBeyondBound) {
  BoundedEventLog<int> log(3);
  for (int i = 0; i < 10; ++i) log.Append(i);
  EXPECT_EQ(log.committed(), 10u);
  EXPECT_EQ(log.evicted(), 7u);
  ASSERT_EQ(log.events().size(), 3u);
  // The retained suffix, in append order.
  EXPECT_EQ(log.events()[0], 7);
  EXPECT_EQ(log.events()[1], 8);
  EXPECT_EQ(log.events()[2], 9);
}

TEST(BoundedEventLogTest, CommittedMinusEvictedIsRetained) {
  BoundedEventLog<int> log(8);
  for (int i = 0; i < 100; ++i) {
    log.Append(i);
    EXPECT_EQ(log.committed() - log.evicted(), log.events().size());
  }
}

TEST(BoundedEventLogTest, ShrinkingEvictsOnNextAppend) {
  BoundedEventLog<int> log(10);
  for (int i = 0; i < 10; ++i) log.Append(i);
  log.set_max_events(4);
  EXPECT_EQ(log.events().size(), 10u);  // shrink is lazy
  log.Append(10);
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.events().front(), 7);
  EXPECT_EQ(log.events().back(), 10);
  EXPECT_EQ(log.committed(), 11u);
  EXPECT_EQ(log.evicted(), 7u);
}

TEST(BoundedEventLogTest, ControllerOptionsDefaultKeepsRecentEvents) {
  // The default bound exists (long-haul runs must not grow without limit)
  // and is generous enough that every realistic trace keeps its full log.
  ControllerOptions options;
  EXPECT_EQ(options.max_event_log, 1024u);
}

TEST(BoundedEventLogTest, MoveOnlyEventsSupported) {
  BoundedEventLog<std::vector<int>> log(2);
  for (int i = 0; i < 4; ++i) log.Append(std::vector<int>{i});
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].front(), 2);
  EXPECT_EQ(log.events()[1].front(), 3);
}

}  // namespace
}  // namespace pathix
