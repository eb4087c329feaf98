#include "flb/serve/serve.hpp"

#include <utility>

#include "flb/util/error.hpp"

namespace flb::serve {

ScheduleService::ScheduleService(Options opts) : opts_(std::move(opts)) {
  FLB_REQUIRE(opts_.num_threads >= 1,
              "ScheduleService: at least one worker thread required");
  FLB_REQUIRE(opts_.queue_capacity >= 1,
              "ScheduleService: queue capacity must be at least 1");
  workers_.reserve(opts_.num_threads);
  for (std::size_t w = 0; w < opts_.num_threads; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

ScheduleService::~ScheduleService() { close(); }

std::size_t ScheduleService::submit(const TaskGraph& g, ProcId num_procs) {
  // A worker that threw would end the process: reject on the caller's
  // thread, before the request is counted.
  FLB_REQUIRE(num_procs >= 1,
              "ScheduleService::submit: at least one processor required");
  std::unique_lock lock(mu_);
  FLB_REQUIRE(!closing_, "ScheduleService::submit: service is closed");
  if (queue_.size() >= opts_.queue_capacity) {
    // Backpressure: the producer is throttled to the pool's throughput
    // instead of growing an unbounded backlog.
    ++stats_.backpressure_waits;
    queue_space_.wait(
        lock, [&] { return queue_.size() < opts_.queue_capacity; });
  }
  const std::size_t id = stats_.submitted++;
  results_.emplace_back();
  queue_.push_back({&g, num_procs, id, std::chrono::steady_clock::now()});
  queue_work_.notify_one();
  return id;
}

void ScheduleService::worker_loop() {
  FlbScheduler scheduler(opts_.flb);
  Schedule buffer(1, 0);
  for (;;) {
    Pending job;
    ScheduleResult* slot = nullptr;
    {
      std::unique_lock lock(mu_);
      queue_work_.wait(lock, [&] { return closing_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closing and fully drained
      job = queue_.front();
      queue_.pop_front();
      // Deques never invalidate references on push_back, so the slot
      // pointer stays valid outside the lock while submit() grows results_.
      slot = &results_[job.id];
      queue_space_.notify_one();
    }
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.run_into(*job.graph, job.num_procs, buffer);
    const auto t1 = std::chrono::steady_clock::now();
    slot->digest = schedule_digest(buffer);
    slot->makespan = buffer.makespan();
    slot->run_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (opts_.keep_schedules) slot->schedule = buffer;
    slot->latency_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - job.submitted)
                           .count();
    {
      std::lock_guard lock(mu_);
      ++stats_.completed;
      if (stats_.completed == stats_.submitted) all_done_.notify_all();
    }
  }
}

void ScheduleService::drain() {
  std::unique_lock lock(mu_);
  all_done_.wait(lock,
                 [&] { return stats_.completed == stats_.submitted; });
}

void ScheduleService::close() {
  {
    std::lock_guard lock(mu_);
    closing_ = true;
    queue_work_.notify_all();
  }
  // Workers drain the remaining queue before exiting, so close() implies
  // drain().
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

const ScheduleResult& ScheduleService::result(std::size_t id) const {
  std::lock_guard lock(mu_);
  FLB_REQUIRE(id < results_.size(), "ScheduleService::result: unknown id");
  return results_[id];
}

std::size_t ScheduleService::size() const {
  std::lock_guard lock(mu_);
  return stats_.submitted;
}

ServiceStats ScheduleService::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace flb::serve
