// Concurrency stress tests for the exec engine, designed to run under
// ThreadSanitizer (the CI tsan job builds this binary with
// -fsanitize=thread). Each test hammers one primitive from many threads
// and checks a conservation property: no item lost, none duplicated,
// ordered commits stay ordered.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/channel.h"
#include "exec/deque.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "util/rng.h"

namespace ngsx::exec {
namespace {

TEST(ChannelStress, ManyProducersManyConsumers) {
  // 4 producers push disjoint value ranges through a small channel into
  // 4 consumers; every value must arrive exactly once.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  Channel<int> ch(8);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&ch, &seen] {
      while (auto v = ch.pop()) {
        seen[static_cast<size_t>(*v)].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ch.close();
  for (auto& t : consumers) {
    t.join();
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  }
}

TEST(ChannelStress, MixedBlockingAndTryOps) {
  Channel<uint64_t> ch(4);
  std::atomic<uint64_t> pushed_sum{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 3000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kThreads; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(static_cast<uint64_t>(p) + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t v = rng.below(1000) + 1;
        if (rng.chance(0.5)) {
          ASSERT_TRUE(ch.push(v));
        } else {
          while (!ch.try_push(v)) {
            std::this_thread::yield();
          }
        }
        pushed_sum.fetch_add(v);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kThreads; ++c) {
    consumers.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 100);
      while (true) {
        std::optional<uint64_t> v;
        if (rng.chance(0.5)) {
          v = ch.pop();
          if (!v.has_value()) {
            return;  // closed and drained
          }
        } else {
          v = ch.try_pop();
          if (!v.has_value()) {
            if (ch.closed() && !(v = ch.pop()).has_value()) {
              return;
            }
            if (!v.has_value()) {
              continue;
            }
          }
        }
        popped_sum.fetch_add(*v);
        popped_count.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  ch.close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(popped_count.load(), kThreads * kPerThread);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(DequeStress, OwnerVersusThieves) {
  // The owner pushes/pops while 3 thieves steal; each element must be
  // taken exactly once overall.
  constexpr int64_t kItems = 20000;
  constexpr int kThieves = 3;
  StealDeque<int64_t> dq;
  std::vector<std::atomic<int>> taken(kItems);
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      int64_t v = 0;
      while (!done.load()) {
        if (dq.steal(v)) {
          taken[static_cast<size_t>(v)].fetch_add(1);
        }
      }
      while (dq.steal(v)) {  // drain what the owner left behind
        taken[static_cast<size_t>(v)].fetch_add(1);
      }
    });
  }
  Rng rng(7);
  int64_t next = 0;
  while (next < kItems) {
    int64_t burst = static_cast<int64_t>(rng.below(64)) + 1;
    for (int64_t i = 0; i < burst && next < kItems; ++i) {
      dq.push(next++);
    }
    int64_t pops = static_cast<int64_t>(rng.below(32));
    int64_t v = 0;
    for (int64_t i = 0; i < pops && dq.pop(v); ++i) {
      taken[static_cast<size_t>(v)].fetch_add(1);
    }
  }
  int64_t v = 0;
  while (dq.pop(v)) {
    taken[static_cast<size_t>(v)].fetch_add(1);
  }
  done.store(true);
  for (auto& t : thieves) {
    t.join();
  }
  for (int64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(taken[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(PoolStress, RecursiveSpawnsConserveWork) {
  // Tasks recursively split like a divide-and-conquer sum; the pool must
  // neither lose nor duplicate leaves despite constant stealing.
  Pool pool(4);
  std::atomic<uint64_t> sum{0};
  std::function<void(uint64_t, uint64_t)> split =
      [&](uint64_t lo, uint64_t hi) {
        if (hi - lo <= 64) {
          uint64_t local = 0;
          for (uint64_t i = lo; i < hi; ++i) {
            local += i;
          }
          sum.fetch_add(local);
          return;
        }
        uint64_t mid = lo + (hi - lo) / 2;
        TaskGroup group(pool);
        group.spawn([&split, lo, mid] { split(lo, mid); });
        group.spawn([&split, mid, hi] { split(mid, hi); });
        group.wait();
      };
  constexpr uint64_t kN = 100000;
  TaskGroup root(pool);
  root.spawn([&split] { split(0, kN); });
  root.wait();
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(PoolStress, RandomGrainParallelFor) {
  Pool pool(4);
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const uint64_t n = rng.below(50000) + 1;
    const uint64_t grain = rng.below(1000);  // 0 = auto
    std::atomic<uint64_t> sum{0};
    parallel_for(pool, 0, n, grain, [&](uint64_t lo, uint64_t hi) {
      uint64_t local = 0;
      for (uint64_t i = lo; i < hi; ++i) {
        local += i;
      }
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), n * (n - 1) / 2)
        << "round " << round << " n=" << n << " grain=" << grain;
  }
}

TEST(PipelineStress, OrderPreservedUnderJitter) {
  Pool pool(4);
  for (int round = 0; round < 5; ++round) {
    constexpr uint64_t kItems = 1000;
    std::vector<uint64_t> committed;
    committed.reserve(kItems);
    uint64_t produced = 0;
    PipelineOptions opt;
    opt.window = 16;
    ordered_pipeline<uint64_t, uint64_t>(
        pool,
        [&produced](uint64_t& item) {
          item = produced++;
          return item < kItems;
        },
        [round](uint64_t&& v, uint64_t) {
          // Data-dependent busy work so completion order is scrambled.
          Rng rng(v * 31 + static_cast<uint64_t>(round));
          uint64_t spin = rng.below(400);
          uint64_t acc = v;
          for (uint64_t i = 0; i < spin; ++i) {
            acc = acc * 6364136223846793005ull + 1442695040888963407ull;
          }
          return v * 2 + (acc & 0);  // keep the busy work observable
        },
        [&committed](uint64_t&& v, uint64_t) { committed.push_back(v); },
        opt);
    ASSERT_EQ(committed.size(), static_cast<size_t>(kItems));
    for (uint64_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(committed[static_cast<size_t>(i)], i * 2) << "round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Error propagation: a worker that throws must surface its error to the
// caller without deadlocking the remaining workers — the contract the
// fault-injection layer (docs/ROBUSTNESS.md) leans on end-to-end.
// ---------------------------------------------------------------------------

TEST(PipelineErrors, TransformErrorPropagatesWithoutDeadlock) {
  Pool pool(4);
  constexpr uint64_t kItems = 2000;
  constexpr uint64_t kPoison = 700;
  for (int round = 0; round < 5; ++round) {
    uint64_t produced = 0;
    try {
      ordered_pipeline<uint64_t, uint64_t>(
          pool,
          [&](uint64_t& item) {
            if (produced >= kItems) {
              return false;
            }
            item = produced++;
            return true;
          },
          [](uint64_t&& item, uint64_t) {
            if (item == kPoison) {
              throw IoError("poisoned transform " + std::to_string(item));
            }
            return item * 2;
          },
          [](uint64_t&&, uint64_t) {},
          PipelineOptions{});
      FAIL() << "transform error was swallowed";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned transform"),
                std::string::npos);
    }
  }
  // The pool survived five failed pipelines: still fully functional.
  std::atomic<uint64_t> sum{0};
  parallel_for(pool, 0, 1000, 1,
               [&](uint64_t b, uint64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 1000u);
}

TEST(PipelineErrors, SinkErrorPropagatesWithoutDeadlock) {
  Pool pool(4);
  constexpr uint64_t kItems = 2000;
  uint64_t produced = 0;
  uint64_t committed = 0;
  try {
    ordered_pipeline<uint64_t, uint64_t>(
        pool,
        [&](uint64_t& item) {
          if (produced >= kItems) {
            return false;
          }
          item = produced++;
          return true;
        },
        [](uint64_t&& item, uint64_t) { return item; },
        [&](uint64_t&& item, uint64_t) {
          if (item == 137) {
            throw IoError("poisoned sink");
          }
          ++committed;
        },
        PipelineOptions{});
    FAIL() << "sink error was swallowed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned sink"), std::string::npos);
  }
  // Order guarantee holds right up to the failure point.
  EXPECT_EQ(committed, 137u);
}

TEST(PipelineErrors, SourceErrorPropagatesWithoutDeadlock) {
  Pool pool(4);
  uint64_t produced = 0;
  EXPECT_THROW(
      (ordered_pipeline<uint64_t, uint64_t>(
          pool,
          [&](uint64_t& item) {
            if (produced == 99) {
              throw IoError("poisoned source");
            }
            item = produced++;
            return true;
          },
          [](uint64_t&& item, uint64_t) { return item; },
          [](uint64_t&&, uint64_t) {}, PipelineOptions{})),
      IoError);
}

TEST(PipelineErrors, PushPipelineReportsWorkerErrorToProducer) {
  // A producer driving a window by hand (the ParallelWriter shape): the
  // worker's error must surface from the pop() that makes room — without
  // hanging, and with the window still able to drop what is in flight.
  Pool pool(4);
  OrderedWindow<uint64_t> window(pool, 12, 4);
  try {
    for (uint64_t i = 0; i < 10000; ++i) {
      if (window.full()) {
        (void)window.pop();
      }
      window.push([i] {
        if (i == 50) {
          throw IoError("poisoned push transform");
        }
        return i;
      });
    }
    while (!window.empty()) {
      (void)window.pop();
    }
    FAIL() << "worker error was swallowed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned push transform"),
              std::string::npos);
  }
  window.discard();
  EXPECT_TRUE(window.empty());
}

TEST(ParallelForErrors, BodyErrorPropagatesAndStopsSiblings) {
  Pool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<uint64_t> executed{0};
    try {
      parallel_for(pool, 0, 100000, 1, [&](uint64_t b, uint64_t) {
        if (b == 1000) {
          throw IoError("poisoned chunk");
        }
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      FAIL() << "parallel_for swallowed the body error";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned chunk"),
                std::string::npos);
    }
    // Early exit: siblings stop claiming chunks once the group has failed.
    // Without the failed() check every non-poison chunk would run (exactly
    // 99999); any smaller count proves chunks were skipped. (No tighter
    // bound: under sanitizers the scheduler decides how many chunks the
    // siblings claim before the poison chunk's error is recorded.)
    EXPECT_LT(executed.load(), 99999u)
        << "siblings kept grinding after the failure";
  }
}

TEST(TaskGroupErrors, FirstErrorWinsAndGroupReportsFailed) {
  Pool pool(4);
  TaskGroup group(pool);
  EXPECT_FALSE(group.failed());
  for (int i = 0; i < 64; ++i) {
    group.spawn([i] {
      if (i % 8 == 3) {
        throw IoError("task " + std::to_string(i));
      }
    });
  }
  try {
    group.wait();
    FAIL() << "task errors were swallowed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("task "), std::string::npos);
  }
  EXPECT_TRUE(group.failed());
}

}  // namespace
}  // namespace ngsx::exec
