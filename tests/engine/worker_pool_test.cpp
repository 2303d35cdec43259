// The process-wide worker pool behind the rram-sharded chip fan-out: every
// task runs exactly once, a one-task call never
// leaves the caller, exceptions from pool threads reach the caller, nested
// calls finish, and concurrent ScoresBatch calls on one sharded backend
// give the serial answers, with and without a chip routed out.
#include "engine/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/compile.h"
#include "engine/backends.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "tensor/rng.h"

namespace rrambnn::engine {
namespace {

TEST(RunTasks, RunsEveryTaskExactlyOnce) {
  for (const std::int64_t count : {0, 1, 2, 3, 7, 64}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(count));
    RunTasks(count, [&](std::int64_t i) {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "count " << count << " task " << i;
    }
  }
}

TEST(RunTasks, OneTaskNeverLeavesTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  RunTasks(1, [&](std::int64_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(RunTasks, TaskZeroRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id first;
  RunTasks(4, [&](std::int64_t i) {
    if (i == 0) first = std::this_thread::get_id();
  });
  EXPECT_EQ(first, caller);
}

TEST(RunTasks, ExceptionOnAPoolThreadReachesTheCaller) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "one hardware thread: the pool is empty";
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> started{false};
  std::thread::id thrower;
  const auto run = [&] {
    RunTasks(2, [&](std::int64_t i) {
      if (i == 0) {
        // Hold the caller in task 0 until a pool thread has taken task 1
        // (bounded, so a stalled pool fails the test instead of hanging).
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!started.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return;
      }
      thrower = std::this_thread::get_id();
      started.store(true);
      throw std::runtime_error("task 1 failed");
    });
  };
  EXPECT_THROW(
      {
        try {
          run();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 1 failed");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_TRUE(started.load());
  EXPECT_NE(thrower, caller);
}

TEST(RunTasks, LowestFailingTaskWinsAfterAllFinish) {
  std::atomic<int> finished{0};
  try {
    RunTasks(6, [&](std::int64_t i) {
      finished.fetch_add(1);
      if (i == 2 || i == 4) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
  EXPECT_EQ(finished.load(), 6);
}

TEST(RunTasks, NestedCallsFinish) {
  std::atomic<int> inner{0};
  RunTasks(8, [&](std::int64_t) {
    RunTasks(8, [&](std::int64_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 64);
}

constexpr std::int64_t kIn = 150, kHidden = 40, kClasses = 4;

core::BnnProgram RandomProgram(Rng& rng) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kIn, kHidden, rng, nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kHidden);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kHidden, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  return core::CompileProgram(net, 0);
}

core::BitMatrix RandomBatch(std::int64_t rows, Rng& rng) {
  core::BitMatrix batch(rows, kIn);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < kIn; ++c) {
      batch.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return batch;
}

/// Expected scores by the documented routing: the serving chips split the
/// rows into contiguous ceil(N / S) chunks in chip order, each chunk served
/// by its own chip alone.
std::vector<float> RoutedScores(ShardedRramBackend& backend,
                                const core::BitMatrix& batch) {
  std::vector<int> serving;
  for (int chip = 0; chip < backend.num_chips(); ++chip) {
    if (backend.chip_serving(chip)) serving.push_back(chip);
  }
  const std::int64_t n = batch.rows();
  const std::int64_t s = static_cast<std::int64_t>(serving.size());
  const std::int64_t chunk = (n + s - 1) / s;
  std::vector<float> out;
  for (std::int64_t c = 0; c * chunk < n; ++c) {
    const core::BitMatrix rows =
        batch.RowSlice(c * chunk, std::min(n, (c + 1) * chunk));
    const std::vector<float> part =
        backend.shard(serving[static_cast<std::size_t>(c)]).ScoresBatch(rows);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(ShardWorkers, ConcurrentCallersGetTheSerialScores) {
  Rng rng(5);
  const core::BnnProgram program = RandomProgram(rng);
  arch::MapperConfig config;
  // Aged devices make the chips differ, so a misrouted row shows.
  config.device.weak_prob_ref = 5e-3;
  config.device.sense_offset_sigma = 0.0;
  config.pre_stress_cycles = 300000000;
  config.seed = 23;
  const std::vector<std::int64_t> row_counts = {1, 5, 7, 31, 33, 61};
  std::vector<core::BitMatrix> batches;
  for (const std::int64_t rows : row_counts) {
    batches.push_back(RandomBatch(rows, rng));
  }
  for (const int chips : {2, 3}) {
    ShardedRramBackend backend(program, config, chips);
    ASSERT_TRUE(backend.concurrent_readers());
    for (const bool route_out : {false, true}) {
      if (route_out) backend.SetChipServing(1, false);
      std::vector<std::vector<float>> expected;
      for (const core::BitMatrix& batch : batches) {
        expected.push_back(RoutedScores(backend, batch));
        ASSERT_EQ(backend.ScoresBatch(batch), expected.back());
      }
      std::atomic<int> mismatches{0};
      std::vector<std::thread> callers;
      for (int t = 0; t < 8; ++t) {
        callers.emplace_back([&, t] {
          for (int round = 0; round < 20; ++round) {
            const std::size_t b =
                static_cast<std::size_t>(t + round) % batches.size();
            if (backend.ScoresBatch(batches[b]) != expected[b]) {
              mismatches.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& caller : callers) caller.join();
      EXPECT_EQ(mismatches.load(), 0)
          << chips << " chips, chip 1 routed out: " << route_out;
    }
  }
}

}  // namespace
}  // namespace rrambnn::engine
