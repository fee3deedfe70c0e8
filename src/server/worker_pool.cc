#include "server/worker_pool.h"

#include <utility>

#include "obs/clock.h"

namespace gpml {
namespace server {

WorkerPool::WorkerPool(size_t num_threads, size_t max_queue)
    : max_queue_(max_queue) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

bool WorkerPool::Submit(std::function<void(double queue_ms)> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return false;
    if (queue_.size() >= max_queue_) return false;
    queue_.push_back(QueuedTask{std::move(task), obs::MonotonicMicros()});
  }
  cv_.notify_one();
  return true;
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && threads_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

size_t WorkerPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t WorkerPool::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void WorkerPool::WorkerLoop() {
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ with a drained queue: exit. (stopping_ with queued
        // tasks keeps draining — Shutdown's contract.)
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    const double queue_ms =
        static_cast<double>(obs::MonotonicMicros() - task.enqueued_us) / 1e3;
    task.fn(queue_ms);
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
  }
}

}  // namespace server
}  // namespace gpml
