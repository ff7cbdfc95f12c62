// BoundedEventLog: the ring buffer behind the controller's decision ledger.
// The bound caps retained memory on long runs; committed() keeps the
// all-time count the serve driver's phase slices rely on, eviction-proof.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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

TEST(BoundedEventLogTest, EvictionLeavesRetainedEventsInPlace) {
  // A full ring evicts by dropping its oldest entry only: the retained
  // entries are neither moved nor copied, whatever their size.
  BoundedEventLog<std::string> log(3);
  for (char c : {'a', 'b', 'c'}) log.Append(std::string(64, c));
  const std::string* second = &log.events()[1];
  const std::string* third = &log.events()[2];
  log.Append(std::string(64, 'd'));
  EXPECT_EQ(log.evicted(), 1u);
  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(&log.events()[0], second);
  EXPECT_EQ(&log.events()[1], third);
  EXPECT_EQ(log.events()[0], std::string(64, 'b'));
  EXPECT_EQ(log.events()[1], std::string(64, 'c'));
  EXPECT_EQ(log.events()[2], std::string(64, 'd'));
}

TEST(BoundedEventLogTest, ControllerOptionsDefaultKeepsRecentEvents) {
  // The default bound exists (long-haul runs must not grow without limit)
  // and is generous enough that every realistic trace keeps its full
  // ledger.
  ControllerOptions options;
  EXPECT_EQ(options.max_decision_log, 4096u);
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
