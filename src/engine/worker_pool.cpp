#include "engine/worker_pool.h"

#include <condition_variable>
#include <exception>
#include <iterator>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

namespace rrambnn::engine {

namespace {

class WorkerPool {
 public:
  explicit WorkerPool(unsigned threads) {
    try {
      for (unsigned i = 0; i < threads; ++i) {
        threads_.emplace_back([this] { Work(); });
      }
    } catch (...) {
      Stop();
      throw;
    }
  }

  ~WorkerPool() { Stop(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Run(std::int64_t count, const std::function<void(std::int64_t)>& task) {
    Batch batch{&task, std::vector<std::exception_ptr>(
                           static_cast<std::size_t>(count))};
    // Items are allocated before any is queued and moved by splicing, which
    // cannot throw: the queue never holds an item of a batch whose caller
    // has left.
    std::list<Item> items;
    for (std::int64_t i = 1; i < count; ++i) items.push_back({&batch, i});
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.splice(queue_.end(), items);
    }
    for (std::int64_t i = 1; i < count; ++i) work_cv_.notify_one();
    Execute(batch, 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = queue_.begin(); it != queue_.end();) {
        const auto next = std::next(it);
        if (it->batch == &batch) items.splice(items.end(), queue_, it);
        it = next;
      }
    }
    for (const Item& item : items) Execute(batch, item.index);
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch.finished += 1 + static_cast<std::int64_t>(items.size());
      done_cv_.wait(lock, [&] { return batch.finished == count; });
    }
    for (const std::exception_ptr& error : batch.errors) {
      if (error) std::rethrow_exception(error);
    }
  }

 private:
  /// One RunTasks call; lives on the caller's stack until every task of it
  /// has finished.
  struct Batch {
    const std::function<void(std::int64_t)>* task;
    /// Slot i is written only by the thread running task i.
    std::vector<std::exception_ptr> errors;
    std::int64_t finished = 0;  // guarded by mu_
  };
  struct Item {
    Batch* batch;
    std::int64_t index;
  };

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  static void Execute(Batch& batch, std::int64_t index) {
    try {
      (*batch.task)(index);
    } catch (...) {
      batch.errors[static_cast<std::size_t>(index)] = std::current_exception();
    }
  }

  void Work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      const Item item = queue_.front();
      queue_.pop_front();
      lock.unlock();
      Execute(*item.batch, item.index);
      lock.lock();
      // Still under mu_: the caller cannot see the count, return and
      // destroy the batch before this thread is done with it.
      ++item.batch->finished;
      done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // queue_ gained an item, or stop_
  std::condition_variable done_cv_;  // some Batch::finished grew
  std::list<Item> queue_;            // guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::vector<std::thread> threads_;
};

WorkerPool& Pool() {
  static WorkerPool pool([] {
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 1 ? hardware - 1 : 0u;
  }());
  return pool;
}

}  // namespace

void RunTasks(std::int64_t count,
              const std::function<void(std::int64_t)>& task) {
  if (count <= 0) return;
  if (count == 1) {
    task(0);
    return;
  }
  Pool().Run(count, task);
}

}  // namespace rrambnn::engine
