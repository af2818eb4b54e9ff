// Tests for the cell reduction the aggregates' field lists drive
// (common/fields.hpp): every counter sums, max_queue_depth takes the max,
// goodput sums as a double, and latency histograms add bin by bin.
#include <gtest/gtest.h>

#include "core/population.hpp"
#include "scenario/campaign.hpp"

namespace fortress::scenario {
namespace {

TEST(AggregateMergeTest, TrafficStatsMergeSumsMaxesAndAddsBins) {
  TrafficStats a;
  a.offered = 1;
  a.completed = 2;
  a.timed_out = 3;
  a.gave_up = 4;
  a.retries = 5;
  a.rejected_responses = 6;
  a.enqueued = 7;
  a.served = 8;
  a.shed = 9;
  a.backpressured = 10;
  a.degraded = 11;
  a.dropped_on_reboot = 12;
  a.max_queue_depth = 90;
  a.goodput = 0.25;
  a.latency.add_bin(3, 2);
  a.latency.add_bin(10, 1);

  TrafficStats b;
  b.offered = 100;
  b.completed = 200;
  b.timed_out = 300;
  b.gave_up = 400;
  b.retries = 500;
  b.rejected_responses = 600;
  b.enqueued = 700;
  b.served = 800;
  b.shed = 900;
  b.backpressured = 1000;
  b.degraded = 1100;
  b.dropped_on_reboot = 1200;
  b.max_queue_depth = 40;
  b.goodput = 0.5;
  b.latency.add_bin(3, 5);
  b.latency.add_bin(20, 7);

  a.merge(b);
  EXPECT_EQ(a.offered, 101u);
  EXPECT_EQ(a.completed, 202u);
  EXPECT_EQ(a.timed_out, 303u);
  EXPECT_EQ(a.gave_up, 404u);
  EXPECT_EQ(a.retries, 505u);
  EXPECT_EQ(a.rejected_responses, 606u);
  EXPECT_EQ(a.enqueued, 707u);
  EXPECT_EQ(a.served, 808u);
  EXPECT_EQ(a.shed, 909u);
  EXPECT_EQ(a.backpressured, 1010u);
  EXPECT_EQ(a.degraded, 1111u);
  EXPECT_EQ(a.dropped_on_reboot, 1212u);
  EXPECT_EQ(a.max_queue_depth, 90u);  // max, not sum
  EXPECT_EQ(a.goodput, 0.75);
  EXPECT_EQ(a.latency.count(), 15u);
  EXPECT_EQ(a.latency.bin(3), 7u);
  EXPECT_EQ(a.latency.bin(10), 1u);
  EXPECT_EQ(a.latency.bin(20), 7u);

  // The max holds from either side.
  TrafficStats deeper;
  deeper.max_queue_depth = 91;
  a.merge(deeper);
  EXPECT_EQ(a.max_queue_depth, 91u);
  EXPECT_EQ(a.offered, 101u);
}

TEST(AggregateMergeTest, PopulationStatsMergeSumsAndAddsBins) {
  core::PopulationStats a;
  a.offered = 1;
  a.completed = 2;
  a.timed_out = 3;
  a.gave_up = 4;
  a.retries = 5;
  a.rejected_responses = 6;
  a.skipped_busy = 7;
  a.latency.add_bin(0, 4);
  a.latency.add_bin(63, 1);

  core::PopulationStats b;
  b.offered = 10;
  b.completed = 20;
  b.timed_out = 30;
  b.gave_up = 40;
  b.retries = 50;
  b.rejected_responses = 60;
  b.skipped_busy = 70;
  b.latency.add_bin(0, 3);
  b.latency.add_bin(12, 9);

  a.merge(b);
  EXPECT_EQ(a.offered, 11u);
  EXPECT_EQ(a.completed, 22u);
  EXPECT_EQ(a.timed_out, 33u);
  EXPECT_EQ(a.gave_up, 44u);
  EXPECT_EQ(a.retries, 55u);
  EXPECT_EQ(a.rejected_responses, 66u);
  EXPECT_EQ(a.skipped_busy, 77u);
  EXPECT_EQ(a.latency.count(), 17u);
  EXPECT_EQ(a.latency.bin(0), 7u);
  EXPECT_EQ(a.latency.bin(12), 9u);
  EXPECT_EQ(a.latency.bin(63), 1u);
}

}  // namespace
}  // namespace fortress::scenario
