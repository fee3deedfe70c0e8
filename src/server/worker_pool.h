#ifndef GPML_SERVER_WORKER_POOL_H_
#define GPML_SERVER_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpml {
namespace server {

/// A fixed-size thread pool with a BOUNDED queue — the server's
/// backpressure mechanism (docs/server.md). Submit never blocks and never
/// queues unboundedly: when every worker is busy and the queue is at
/// max_queue, it returns false and the caller turns that into a
/// structured SERVER_SATURATED error instead of letting latency (and
/// memory) grow without bound.
///
/// Shutdown drains: every task accepted before Shutdown runs to
/// completion before the workers join — the graceful-shutdown half of the
/// server contract (in-flight executions finish; new work is rejected).
class WorkerPool {
 public:
  WorkerPool(size_t num_threads, size_t max_queue);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task`. False (task not accepted) when the queue is full or
  /// the pool is shutting down. The task is handed its own queue wait
  /// (milliseconds between submission and worker pickup) — the server's
  /// `queue` span, so queue wait shows in traces and timing objects.
  bool Submit(std::function<void(double queue_ms)> task);

  /// Rejects new submissions, runs everything already accepted, joins the
  /// workers. Idempotent.
  void Shutdown();

  /// Tasks waiting (not yet started). Running tasks are not counted.
  size_t queue_depth() const;
  /// Tasks currently executing.
  size_t active() const;

 private:
  /// A queued task plus its enqueue timestamp (monotonic microseconds);
  /// the worker computes the queue wait at pickup.
  struct QueuedTask {
    std::function<void(double queue_ms)> fn;
    uint64_t enqueued_us = 0;
  };

  void WorkerLoop();

  const size_t max_queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // Signals workers: work or stop.
  std::deque<QueuedTask> queue_;
  size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_WORKER_POOL_H_
