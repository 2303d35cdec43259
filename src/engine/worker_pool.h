// The engine's one parallelism mechanism for data-parallel fan-out: the
// per-chip row ranges of the rram-sharded backend and the row shards of
// Engine::Predict / Evaluate run as tasks on a process-wide pool of
// persistent threads, so no request spawns a thread.
#pragma once

#include <cstdint>
#include <functional>

namespace rrambnn::engine {

/// Runs task(0), ..., task(count - 1) and returns once all have finished.
/// Task 0 runs on the calling thread; tasks 1 .. count - 1 are offered to
/// one process-wide pool of hardware_concurrency() - 1 persistent threads,
/// started on first use. When task 0 is done the caller takes back every
/// task no pool thread has started and runs it itself, so a call only ever
/// waits on tasks that are already running, and a task may call RunTasks
/// without risk of deadlock. A one-task call never touches the pool; on a
/// one-hardware-thread host the pool is empty and every task runs on the
/// caller, in index order. Tasks must give the same result on any thread.
/// If tasks throw, the exception of the lowest such index is rethrown once
/// every task has finished.
void RunTasks(std::int64_t count,
              const std::function<void(std::int64_t)>& task);

}  // namespace rrambnn::engine
