#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace maqs::sim {
namespace {

TEST(EventLoop, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30, [&] { order.push_back(3); });
  loop.schedule(10, [&] { order.push_back(1); });
  loop.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SimultaneousEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(10, [&order, i] { order.push_back(i); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.schedule(100, [] {});
  loop.run_until_idle();
  bool ran = false;
  loop.schedule(-5, [&] { ran = true; });
  loop.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, ScheduleAtPastTimeRunsNow) {
  EventLoop loop;
  loop.schedule(50, [] {});
  loop.run_until_idle();
  std::int64_t observed = -1;
  loop.schedule_at(10, [&] { observed = loop.now(); });
  loop.run_until_idle();
  EXPECT_EQ(observed, 50);
}

TEST(EventLoop, HandlersMayScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) loop.schedule(10, reschedule);
  };
  loop.schedule(10, reschedule);
  loop.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.run_until_idle();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelUnknownReturnsFalse) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(0));
  EXPECT_FALSE(loop.cancel(9999));
}

TEST(EventLoop, CancelAfterRunReturnsFalseViaDoubleCancel) {
  EventLoop loop;
  const EventId id = loop.schedule(1, [] {});
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already marked
}

TEST(EventLoop, PendingCountExcludesCancelled) {
  EventLoop loop;
  const EventId a = loop.schedule(1, [] {});
  loop.schedule(2, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RunUntilPredicate) {
  EventLoop loop;
  int x = 0;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(10 * (i + 1), [&] { ++x; });
  }
  EXPECT_TRUE(loop.run_until([&] { return x == 4; }));
  EXPECT_EQ(x, 4);
  EXPECT_EQ(loop.now(), 40);
  EXPECT_EQ(loop.pending(), 6u);
}

TEST(EventLoop, RunUntilReturnsFalseWhenQueueDrains) {
  EventLoop loop;
  loop.schedule(10, [] {});
  EXPECT_FALSE(loop.run_until([] { return false; }));
}

TEST(EventLoop, RunUntilAlreadySatisfiedDoesNothing) {
  EventLoop loop;
  bool ran = false;
  loop.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(loop.run_until([] { return true; }));
  EXPECT_FALSE(ran);
}

// The nested-pumping pattern that blocking RPC relies on: a handler itself
// waits for a later event.
TEST(EventLoop, NestedRunUntil) {
  EventLoop loop;
  std::vector<int> order;
  bool inner_done = false;
  loop.schedule(10, [&] {
    order.push_back(1);
    loop.schedule(5, [&] {
      order.push_back(2);
      inner_done = true;
    });
    EXPECT_TRUE(loop.run_until([&] { return inner_done; }));
    order.push_back(3);
  });
  loop.schedule(100, [&] { order.push_back(4); });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoop, RunForAdvancesExactDuration) {
  EventLoop loop;
  int count = 0;
  loop.schedule(10, [&] { ++count; });
  loop.schedule(20, [&] { ++count; });
  loop.schedule(30, [&] { ++count; });
  loop.run_for(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 20);
  loop.run_for(5);  // nothing in window, clock still advances
  EXPECT_EQ(loop.now(), 25);
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, RunForSkipsCancelledHeadWithoutOverrunning) {
  EventLoop loop;
  bool late_ran = false;
  const EventId head = loop.schedule(5, [] {});
  loop.schedule(50, [&] { late_ran = true; });
  loop.cancel(head);
  loop.run_for(10);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoop, EventAtExactDeadlineRuns) {
  EventLoop loop;
  bool ran = false;
  loop.schedule(10, [&] { ran = true; });
  loop.run_for(10);
  EXPECT_TRUE(ran);
}

TEST(EventLoop, TombstoneBacklogStaysBoundedOverAMillionCancelCycles) {
  // Regression: a large persistent live backlog (here 100k armed
  // far-future timers, standing in for one timer per client in a
  // population world) once let a long-horizon schedule-and-cancel loop
  // pile up cancelled entries the queue could not drop. Cancel now removes
  // the event outright and frees its slot for the next schedule, so the
  // slot table never grows past the live events plus the one in flight.
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    loop.schedule(1'000'000'000 + i, [&] { ++fired; });
  }
  std::size_t max_slots = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // The blocking-RPC shape: arm a far-future timeout, then cancel it
    // when the (instant) reply lands. Virtual time never reaches it.
    const EventId timeout = loop.schedule(2'000'000'000, [] {});
    ASSERT_TRUE(loop.cancel(timeout));
    ASSERT_EQ(loop.pending(), 100'000u);
    ASSERT_EQ(fired, 0);
    max_slots = std::max(max_slots, loop.slot_count());
  }
  EXPECT_LE(max_slots, 100'001u);
  EXPECT_EQ(loop.run_until_idle(), 100'000u);
  EXPECT_EQ(fired, 100'000);
}

TEST(EventLoop, StaleCancelsCannotUnderflowPending) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(loop.schedule(i, [] {}));
  }
  loop.run_until_idle();
  // Cancelling after execution is a late no-op and must not disturb the
  // pending count.
  for (EventId id : ids) loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule(5, [&] { ran = true; });
  loop.run_until_idle();
  ASSERT_TRUE(ran);
  EXPECT_FALSE(loop.cancel(id));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancellingItsOwnIdFromInsideTheHandlerReturnsFalse) {
  EventLoop loop;
  EventId self = 0;
  bool cancelled = true;
  self = loop.schedule(5, [&] { cancelled = loop.cancel(self); });
  EXPECT_EQ(loop.run_until_idle(), 1u);
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, StaleIdCannotCancelTheEventThatReusesItsSlot) {
  EventLoop loop;
  const EventId first = loop.schedule(5, [] {});
  ASSERT_TRUE(loop.cancel(first));
  bool ran = false;
  const EventId second = loop.schedule(5, [&] { ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(loop.cancel(first));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.slot_count(), 1u);
}

}  // namespace
}  // namespace maqs::sim
