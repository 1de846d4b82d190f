#include "crypto/work_pool.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "crypto/verify_memo.hpp"

namespace sintra::crypto {

WorkPool::WorkPool(std::size_t threads)
    : m_jobs_(&obs::registry().counter("crypto.pool.jobs")),
      m_depth_(&obs::registry().gauge("crypto.pool.depth")),
      m_wait_ms_(&obs::registry().histogram("crypto.pool.wait_ms")) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this](const std::stop_token& st) { worker(st); });
  }
}

WorkPool::~WorkPool() {
  for (std::jthread& w : workers_) w.request_stop();
  cv_.notify_all();
  // jthread joins on destruction; workers drain the queue first (the wait
  // predicate keeps returning true while jobs remain).
}

double WorkPool::now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WorkPool::submit(std::function<void()> work,
                      std::function<void()> complete) {
  m_jobs_->inc();
  if (workers_.empty()) {
    work();
    complete();
    return;
  }
  {
    const std::lock_guard lk(mu_);
    queue_.push_back({std::move(work), std::move(complete), now_ms(),
                      VerifyMemo::current()});
    m_depth_->set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

void WorkPool::worker(const std::stop_token& st) {
  for (;;) {
    Job job;
    {
      std::unique_lock lk(mu_);
      if (!cv_.wait(lk, st, [this] { return !queue_.empty(); })) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      m_depth_->set(static_cast<double>(queue_.size()));
    }
    m_wait_ms_->observe(now_ms() - job.enqueue_ms);
    {
      const VerifyMemo::Scope memo(job.memo);
      job.work();
    }
    // Helper jobs from run_parallel() have no completion to deliver.
    if (job.complete) finish({std::move(job.complete), job.memo});
  }
}

void WorkPool::run_parallel(std::vector<std::function<void()>>& jobs) {
  if (jobs.empty()) return;
  if (workers_.empty() || jobs.size() == 1) {
    for (const std::function<void()>& job : jobs) job();
    return;
  }
  struct Batch {
    std::vector<std::function<void()>>* jobs;  // valid while done < total
    std::size_t total;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto batch = std::make_shared<Batch>();
  batch->jobs = &jobs;
  batch->total = jobs.size();
  // Claims jobs off the shared cursor until none remain.  Leftover helper
  // entries that wake after the batch is finished see next >= total and
  // never touch the (by then possibly destroyed) jobs vector.
  auto claim = [batch] {
    for (;;) {
      const std::size_t i = batch->next.fetch_add(1);
      if (i >= batch->total) return;
      (*batch->jobs)[i]();
      if (batch->done.fetch_add(1) + 1 == batch->total) {
        const std::lock_guard lk(batch->mu);
        batch->cv.notify_all();
      }
    }
  };
  const std::size_t helpers = std::min(workers_.size(), batch->total - 1);
  {
    const std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.push_back({claim, nullptr, now_ms(), VerifyMemo::current()});
    }
    m_depth_->set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  claim();  // caller participation guarantees progress
  std::unique_lock lk(batch->mu);
  batch->cv.wait(lk,
                 [&batch] { return batch->done.load() >= batch->total; });
}

void WorkPool::finish(Completion complete) {
  std::function<void()> notify;
  {
    const std::lock_guard lk(done_mu_);
    done_.push_back(std::move(complete));
    notify = notify_;
  }
  if (notify) notify();
}

std::size_t WorkPool::drain_completions() {
  std::vector<Completion> batch;
  {
    const std::lock_guard lk(done_mu_);
    batch.swap(done_);
  }
  for (const Completion& c : batch) {
    const VerifyMemo::Scope memo(c.memo);
    c.fn();
  }
  return batch.size();
}

void WorkPool::set_completion_notify(std::function<void()> notify) {
  const std::lock_guard lk(done_mu_);
  notify_ = std::move(notify);
}

}  // namespace sintra::crypto
