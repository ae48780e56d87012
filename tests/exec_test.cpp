// Unit tests for the exec execution engine: work-stealing pool semantics
// (submit/wait, exception propagation, nesting), bounded channel
// (backpressure, close/drain), dynamic parallel_for (sum property), the
// ordered window and pipeline (ticket order, width cap, error propagation,
// nesting), and the pool-backed NL-means tile scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/channel.h"
#include "exec/deque.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "exec/serial.h"
#include "stats/nlmeans.h"
#include "util/rng.h"

namespace ngsx::exec {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1); }

// ----------------------------------------------------------------- deque

TEST(StealDeque, OwnerLifoThiefFifo) {
  StealDeque<int*> dq;
  int vals[4] = {0, 1, 2, 3};
  for (int& v : vals) {
    dq.push(&v);
  }
  int* got = nullptr;
  ASSERT_TRUE(dq.steal(got));
  EXPECT_EQ(got, &vals[0]);  // thief takes the oldest
  ASSERT_TRUE(dq.pop(got));
  EXPECT_EQ(got, &vals[3]);  // owner takes the newest
  ASSERT_TRUE(dq.pop(got));
  EXPECT_EQ(got, &vals[2]);
  ASSERT_TRUE(dq.steal(got));
  EXPECT_EQ(got, &vals[1]);
  EXPECT_FALSE(dq.pop(got));
  EXPECT_FALSE(dq.steal(got));
}

TEST(StealDeque, GrowsPastInitialCapacity) {
  StealDeque<size_t*> dq(2);
  std::vector<size_t> vals(1000);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = i;
    dq.push(&vals[i]);
  }
  EXPECT_EQ(dq.size_estimate(), 1000);
  size_t* got = nullptr;
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_TRUE(dq.steal(got));
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(dq.steal(got));
}

// ------------------------------------------------------------------ pool

TEST(Pool, RunsAllSpawnedTasks) {
  Pool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.spawn([&count] { count.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(Pool, WaitIsReusable) {
  Pool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  group.spawn([&count] { count.fetch_add(1); });
  group.wait();
  group.spawn([&count] { count.fetch_add(1); });
  group.spawn([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(Pool, ExceptionPropagatesToWait) {
  Pool pool(3);
  std::atomic<int> survivors{0};
  TaskGroup group(pool);
  for (int i = 0; i < 20; ++i) {
    group.spawn([&survivors, i] {
      if (i == 7) {
        throw UsageError("task 7 failed");
      }
      survivors.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), UsageError);
  EXPECT_EQ(survivors.load(), 19);  // the other tasks still ran
}

TEST(Pool, NestedSpawnFromWorkerDoesNotDeadlock) {
  // A task that spawns subtasks and waits for them must help-execute
  // rather than block its worker — even on a single-thread pool.
  Pool pool(1);
  std::atomic<int> leaves{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.spawn([&pool, &leaves] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.spawn([&leaves] { leaves.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(Pool, WorkerIndexVisibleInsideTasks) {
  Pool pool(3);
  EXPECT_EQ(Pool::current_worker_index(), -1);
  EXPECT_FALSE(pool.on_worker_thread());
  TaskGroup group(pool);
  std::atomic<bool> in_range{true};
  for (int i = 0; i < 16; ++i) {
    group.spawn([&] {
      int idx = Pool::current_worker_index();
      if (idx < 0 || idx >= 3 || !pool.on_worker_thread()) {
        in_range.store(false);
      }
    });
  }
  group.wait();
  EXPECT_TRUE(in_range.load());
}

TEST(Pool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    Pool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // No wait: the destructor must run everything already submitted.
  }
  EXPECT_EQ(count.load(), 50);
}

// --------------------------------------------------------------- channel

TEST(Channel, FifoAndTryVariants) {
  Channel<int> ch(3);
  int v1 = 1;
  int v2 = 2;
  int v3 = 3;
  int v4 = 4;
  EXPECT_TRUE(ch.try_push(v1));
  EXPECT_TRUE(ch.try_push(v2));
  EXPECT_TRUE(ch.try_push(v3));
  EXPECT_FALSE(ch.try_push(v4));  // full
  EXPECT_EQ(v4, 4);               // kept by the caller on failure
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.try_pop(), std::optional<int>(1));
  EXPECT_EQ(ch.try_pop(), std::optional<int>(2));
  EXPECT_TRUE(ch.try_push(v4));
  EXPECT_EQ(ch.try_pop(), std::optional<int>(3));
  EXPECT_EQ(ch.try_pop(), std::optional<int>(4));
  EXPECT_EQ(ch.try_pop(), std::nullopt);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> ch(8);
  EXPECT_TRUE(ch.push(10));
  EXPECT_TRUE(ch.push(11));
  ch.close();
  EXPECT_FALSE(ch.push(12));  // push fails after close
  EXPECT_EQ(ch.pop(), std::optional<int>(10));
  EXPECT_EQ(ch.pop(), std::optional<int>(11));
  EXPECT_EQ(ch.pop(), std::nullopt);  // drained
  EXPECT_EQ(ch.pop(), std::nullopt);  // stays ended
}

TEST(Channel, PushBlocksUntilSpace) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.push(2));  // blocks until the consumer pops
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());  // still blocked on the full channel
  EXPECT_EQ(ch.pop(), std::optional<int>(1));
  EXPECT_EQ(ch.pop(), std::optional<int>(2));
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(Channel, CloseUnblocksProducer) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.push(1));
  std::thread producer([&] {
    EXPECT_FALSE(ch.push(2));  // woken by close, not by space
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  producer.join();
}

TEST(Channel, TypedSendDistinguishesFullFromClosed) {
  Channel<int> ch(1);
  int v = 7;
  EXPECT_EQ(ch.try_send(v), ChannelStatus::kAccepted);
  int w = 8;
  EXPECT_EQ(ch.try_send(w), ChannelStatus::kFull);
  EXPECT_EQ(w, 8);  // kept by the caller when not accepted
  ch.close();
  EXPECT_EQ(ch.try_send(w), ChannelStatus::kClosed);  // closed wins over full
  EXPECT_EQ(w, 8);
}

TEST(Channel, SendersAfterCloseGetTypedFailureReceiversDrain) {
  Channel<std::string> ch(8);
  std::string a = "a";
  std::string b = "b";
  EXPECT_EQ(ch.send(a), ChannelStatus::kAccepted);
  EXPECT_EQ(ch.send(b), ChannelStatus::kAccepted);
  ch.close();
  ch.close();  // idempotent
  std::string late = "late";
  EXPECT_EQ(ch.send(late), ChannelStatus::kClosed);
  EXPECT_EQ(late, "late");  // value not consumed on kClosed
  EXPECT_EQ(ch.try_send(late), ChannelStatus::kClosed);
  EXPECT_EQ(late, "late");
  // Receivers drain everything accepted before close, then end-of-stream.
  EXPECT_EQ(ch.pop(), std::optional<std::string>("a"));
  EXPECT_EQ(ch.pop(), std::optional<std::string>("b"));
  EXPECT_EQ(ch.pop(), std::nullopt);
}

TEST(Channel, CloseWakesBlockedTypedSenderWithKClosed) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.push(1));
  std::atomic<bool> got_closed{false};
  std::thread producer([&] {
    int v = 2;
    got_closed.store(ch.send(v) == ChannelStatus::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  producer.join();
  EXPECT_TRUE(got_closed.load());
  // The queued item from before close still drains.
  EXPECT_EQ(ch.pop(), std::optional<int>(1));
  EXPECT_EQ(ch.pop(), std::nullopt);
}

TEST(Channel, ConcurrentProducersDrainCompletelyAfterClose) {
  // Many producers racing close(): every value that was *accepted* must be
  // delivered to consumers exactly once; every rejected send must report
  // kClosed and leave the value intact.
  Channel<int> ch(4);
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 64; ++i) {
        int v = t * 1000 + i;
        ChannelStatus s = ch.send(v);
        if (s == ChannelStatus::kAccepted) {
          accepted.fetch_add(1);
        } else {
          EXPECT_EQ(s, ChannelStatus::kClosed);
          EXPECT_EQ(v, t * 1000 + i);
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::atomic<int> received{0};
  std::thread consumer([&] {
    while (ch.pop().has_value()) {
      received.fetch_add(1);
      if (received.load() == 100) {
        ch.close();  // close mid-stream with producers still sending
      }
    }
  });
  for (auto& p : producers) {
    p.join();
  }
  consumer.join();
  EXPECT_EQ(accepted.load() + rejected.load(), 4 * 64);
  EXPECT_EQ(received.load(), accepted.load());  // drained, nothing lost
}

// ----------------------------------------------------------- parallel_for

TEST(ParallelFor, SumProperty) {
  Pool pool(4);
  for (uint64_t n : {0ull, 1ull, 7ull, 1000ull, 12345ull}) {
    for (uint64_t grain : {0ull, 1ull, 16ull, 1000ull}) {
      std::atomic<uint64_t> sum{0};
      parallel_for(pool, 0, n, grain, [&](uint64_t lo, uint64_t hi) {
        uint64_t local = 0;
        for (uint64_t i = lo; i < hi; ++i) {
          local += i;
        }
        sum.fetch_add(local);
      });
      EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "n=" << n << " g=" << grain;
    }
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  Pool pool(3);
  std::vector<std::atomic<int>> hits(997);
  parallel_for(pool, 0, hits.size(), 10, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ExceptionPropagates) {
  Pool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 1000, 10,
                            [&](uint64_t lo, uint64_t) {
                              if (lo >= 500) {
                                throw FormatError("bad tile");
                              }
                            }),
               FormatError);
}

// -------------------------------------------------------------- pipeline

TEST(OrderedPipeline, CommitsInTicketOrder) {
  Pool pool(4);
  const int n = 200;
  int next_item = 0;
  std::vector<int> committed;
  Rng rng(11);
  ordered_pipeline<int, int>(
      pool,
      [&](int& item) {
        if (next_item >= n) {
          return false;
        }
        item = next_item++;
        return true;
      },
      [&rng](int&& item, uint64_t) {
        // Jitter completion order; commits must still be sequential.
        if (item % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return item * 3;
      },
      [&](int&& out, uint64_t ticket) {
        EXPECT_EQ(committed.size(), ticket);
        committed.push_back(out);
      });
  ASSERT_EQ(committed.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(committed[static_cast<size_t>(i)], i * 3);
  }
}

TEST(OrderedPipeline, TransformErrorRethrown) {
  Pool pool(3);
  int next_item = 0;
  std::atomic<int> committed{0};
  EXPECT_THROW(
      (ordered_pipeline<int, int>(
          pool,
          [&](int& item) {
            if (next_item >= 100) {
              return false;
            }
            item = next_item++;
            return true;
          },
          [](int&& item, uint64_t) {
            if (item == 31) {
              throw IoError("disk on fire");
            }
            return item;
          },
          [&](int&&, uint64_t) { committed.fetch_add(1); })),
      IoError);
  EXPECT_LE(committed.load(), 31);
}

TEST(OrderedPipeline, SinkErrorRethrown) {
  Pool pool(2);
  int next_item = 0;
  EXPECT_THROW((ordered_pipeline<int, int>(
                   pool,
                   [&](int& item) {
                     if (next_item >= 50) {
                       return false;
                     }
                     item = next_item++;
                     return true;
                   },
                   [](int&& item, uint64_t) { return item; },
                   [](int&&, uint64_t ticket) {
                     if (ticket == 10) {
                       throw IoError("write failed");
                     }
                   })),
               IoError);
}

TEST(OrderedWindow, PopsInTicketOrder) {
  Pool pool(4);
  OrderedWindow<int> window(pool, 8, 4);
  std::vector<int> popped;
  for (int i = 0; i < 300; ++i) {
    if (window.full()) {
      popped.push_back(window.pop());
    }
    window.push([i] {
      if (i % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      return i + 1000;
    });
  }
  while (!window.empty()) {
    popped.push_back(window.pop());
  }
  ASSERT_EQ(popped.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(popped[static_cast<size_t>(i)], i + 1000);
  }
}

TEST(OrderedWindow, TaskErrorSurfacesAtItsTicket) {
  // Tickets before the failing one still deliver; its pop() rethrows.
  Pool pool(2);
  OrderedWindow<int> window(pool, 4, 2);
  int next = 0;
  int delivered = 0;
  EXPECT_THROW(
      {
        while (true) {
          while (!window.full()) {
            window.push([v = next++] {
              if (v == 5) {
                throw FormatError("item 5 is cursed");
              }
              return v;
            });
          }
          EXPECT_EQ(window.pop(), delivered);
          ++delivered;
        }
      },
      FormatError);
  EXPECT_EQ(delivered, 5);
}

TEST(OrderedWindow, WidthCapsTasksRunningAtOnce) {
  // At most `width` tickets run on the pool at once (the caller may run
  // the oldest one itself on top, which is not pool work).
  Pool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  OrderedWindow<int> window(pool, 16, 2);
  for (int i = 0; i < 16; ++i) {
    window.push([&, i] {
      const bool on_pool = pool.on_worker_thread();
      int now = running.fetch_add(on_pool ? 1 : 0) + 1;
      int seen = peak.load();
      while (on_pool && now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      running.fetch_sub(on_pool ? 1 : 0);
      return i;
    });
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(window.pop(), i);
  }
  EXPECT_LE(peak.load(), 2);
}

TEST(OrderedWindow, DiscardIsIdempotentAndReusable) {
  Pool pool(2);
  OrderedWindow<int> window(pool, 4, 2);
  for (int i = 0; i < 4; ++i) {
    window.push([i] { return i; });
  }
  window.discard();
  window.discard();
  EXPECT_TRUE(window.empty());
  window.push([] { return 42; });
  EXPECT_EQ(window.pop(), 42);
  EXPECT_THROW(window.pop(), Error);
}

TEST(OrderedWindow, NestedWindowsOnASingleWorkerPool) {
  // Every window caller below is the pool's only worker: it must run the
  // inner tasks itself while it waits.
  Pool pool(1);
  std::atomic<int> sum{0};
  TaskGroup group(pool);
  for (int outer = 0; outer < 3; ++outer) {
    group.spawn([&pool, &sum] {
      int next = 0;
      ordered_pipeline<int, int>(
          pool,
          [&next](int& item) {
            item = next++;
            return item < 20;
          },
          [](int&& item, uint64_t) { return item * 2; },
          [&sum](int&& out, uint64_t) { sum.fetch_add(out); },
          PipelineOptions{1, 2});
    });
  }
  group.wait();
  EXPECT_EQ(sum.load(), 3 * 2 * (19 * 20 / 2));
}

// ----------------------------------------------------------- SerialStage

TEST(SerialStage, RunsJobsInSubmissionOrder) {
  std::vector<int> order;
  {
    SerialStage stage(4);
    for (int i = 0; i < 100; ++i) {
      stage.submit([&order, i] { order.push_back(i); });
    }
    stage.finish();
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SerialStage, FinishDrainsEverythingAccepted) {
  // Capacity 1 forces submit() to block and hand jobs over one at a time;
  // finish() must still run them all.
  std::atomic<int> ran{0};
  SerialStage stage(1);
  for (int i = 0; i < 50; ++i) {
    stage.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  }
  stage.finish();
  EXPECT_EQ(ran.load(), 50);
}

TEST(SerialStage, ErrorPoisonsAndRethrows) {
  SerialStage stage(2);
  std::atomic<int> ran_after{0};
  stage.submit([] { throw FormatError("stage boom"); });
  // Later jobs are discarded; eventually submit() starts rethrowing. Keep
  // submitting until the failure surfaces (the worker races the producer).
  bool threw = false;
  try {
    for (int i = 0; i < 10000 && !threw; ++i) {
      stage.submit([&ran_after] { ran_after.fetch_add(1); });
    }
  } catch (const FormatError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("stage boom"), std::string::npos);
  }
  if (!threw) {
    EXPECT_THROW(stage.finish(), FormatError);
  } else {
    stage.finish();  // error already consumed by the submit() rethrow
  }
}

TEST(SerialStage, FinishIsIdempotentAndSubmitAfterFinishThrows) {
  SerialStage stage(2);
  int ran = 0;
  stage.submit([&ran] { ++ran; });
  stage.finish();
  stage.finish();
  EXPECT_EQ(ran, 1);
  EXPECT_THROW(stage.submit([] {}), UsageError);
}

// ------------------------------------------------- nlmeans pool scheduler

TEST(NlmeansPool, MatchesSequential) {
  Rng rng(99);
  std::vector<double> data(1500);
  for (auto& v : data) {
    v = static_cast<double>(rng.below(1000)) / 10.0;
  }
  stats::NlMeansParams params;
  params.r = 8;
  params.l = 5;
  params.sigma = 4.0;
  const std::vector<double> expected = stats::nlmeans(data, params);
  for (int threads : {1, 2, 4}) {
    for (size_t tile : {size_t{0}, size_t{1}, size_t{37}, size_t{4000}}) {
      std::vector<double> got =
          stats::nlmeans_parallel_pool(data, params, threads, tile);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << "bit-exact at bin " << i;
      }
    }
  }
}

TEST(NlmeansPool, EmptyInput) {
  stats::NlMeansParams params;
  EXPECT_TRUE(
      stats::nlmeans_parallel_pool(std::vector<double>{}, params, 4).empty());
}

}  // namespace
}  // namespace ngsx::exec
