#include "facade/local_transport.hpp"

#include <chrono>

#include "sim/network.hpp"

namespace sintra::facade {

namespace {
double steady_now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

LocalNode::LocalNode(LocalGroup& group, int id, crypto::PartyKeys keys)
    : group_(group),
      id_(id),
      keys_(std::move(keys)),
      rng_(0xfacade ^ (static_cast<std::uint64_t>(id) << 24)) {
  // Same instrumentation surface as the simulator and the UDP stack;
  // timestamps use the group's shared virtual clock.
  dispatcher_.attach_obs(id, [this] { return now_ms(); });
}

void LocalNode::send(core::PartyId to, Bytes wire) {
  if (to < 0 || to >= n()) throw std::out_of_range("LocalNode::send");
  // Authenticate exactly as on a real link.
  Bytes authed = sim::authenticate_frame(
      keys_.link_keys[static_cast<std::size_t>(to)], id_, to, wire);
  group_.node(to).enqueue(Incoming{id_, std::move(authed)});
}

void LocalNode::send_all(Bytes wire) {
  for (int j = 0; j < n(); ++j) send(j, wire);
}

double LocalNode::now_ms() const { return steady_now_ms(); }

void LocalNode::enqueue(Task task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void LocalNode::run_loop() {
  // The thread belongs to this party: everything it runs verifies under
  // the party's memo.
  const crypto::VerifyMemo::Scope memo(&verify_memo_);
  for (;;) {
    Task task{std::function<void()>{}};
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (auto* incoming = std::get_if<Incoming>(&task)) {
      Bytes frame;
      if (sim::open_frame(
              keys_.link_keys[static_cast<std::size_t>(incoming->from)],
              incoming->from, id_, incoming->wire, frame)) {
        dispatcher_.on_message(incoming->from, frame);
      }
    } else {
      auto& fn = std::get<std::function<void()>>(task);
      if (fn) fn();
    }
  }
}

LocalGroup::LocalGroup(const crypto::Deal& deal) {
  nodes_.reserve(deal.parties.size());
  crashed_.assign(deal.parties.size(), 0);
  for (std::size_t i = 0; i < deal.parties.size(); ++i) {
    nodes_.push_back(
        std::make_unique<LocalNode>(*this, static_cast<int>(i),
                                    deal.parties[i]));
  }
  for (auto& node : nodes_) {
    node->thread_ = std::thread([&n = *node] { n.run_loop(); });
  }
}

LocalGroup::~LocalGroup() { stop(); }

void LocalGroup::post(int i, std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(crash_mutex_);
    if (crashed_.at(static_cast<std::size_t>(i)) != 0) return;
  }
  node(i).enqueue(std::move(fn));
}

void LocalGroup::post_sync(int i, std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(crash_mutex_);
    if (crashed_.at(static_cast<std::size_t>(i)) != 0) {
      // The node's thread is stopped and will never touch its objects
      // again, so running on the caller's thread is race-free.  This keeps
      // teardown (e.g. BlockingChannel destructors) from deadlocking.
      fn();
      return;
    }
  }
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  post(i, [&] {
    fn();
    // Notify under the lock: the waiter cannot return (and destroy m and
    // cv, which live on its stack) until this closure has released it.
    const std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
}

void LocalGroup::crash(int i) {
  {
    const std::lock_guard<std::mutex> lock(crash_mutex_);
    crashed_.at(static_cast<std::size_t>(i)) = 1;
  }
  // Stop the node's loop.  Already-queued tasks drain (so synchronous
  // posters are released) but nothing new is accepted and nothing new is
  // sent after the drain — an effective crash-stop for the group.
  LocalNode& nd = node(i);
  {
    const std::lock_guard<std::mutex> lock(nd.mutex_);
    nd.stopping_ = true;
  }
  nd.cv_.notify_all();
}

void LocalGroup::stop() {
  for (auto& node : nodes_) {
    if (!node) continue;
    {
      const std::lock_guard<std::mutex> lock(node->mutex_);
      node->stopping_ = true;
    }
    node->cv_.notify_all();
  }
  for (auto& node : nodes_) {
    if (node && node->thread_.joinable()) node->thread_.join();
  }
}

}  // namespace sintra::facade
