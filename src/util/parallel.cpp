#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace llamp {
namespace {

/// Helpers plus the calling thread.
int executor_size() {
  static const int size =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return size;
}

/// One parallel_for call in flight.  It lives on its caller's stack: the
/// caller unpublishes it and waits for every helper that joined it before
/// returning, so no helper ever touches a dead Loop.
struct Loop {
  std::size_t n = 0;
  int slots = 0;  ///< participants wanted, the caller included
  const std::function<void(int, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};  ///< next unclaimed index
  std::atomic<bool> failed{false};   ///< stop claiming after a throw
  // Guarded by the executor's mutex.
  int joined = 1;   ///< slots handed out; the caller holds slot 0
  int running = 0;  ///< helpers still draining this loop
  std::exception_ptr error;
  std::condition_variable done;
};

class Executor {
 public:
  /// Started by the first loop that fans out; joined at exit.
  static Executor& instance() {
    static Executor executor;
    return executor;
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      while (!idle_.empty()) wake_one();
    }
    for (std::thread& t : helpers_) t.join();
  }

  void run(Loop& loop) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&loop);
      for (int k = 1; k < loop.slots && !idle_.empty(); ++k) wake_one();
    }
    drain(loop, 0);
    std::unique_lock<std::mutex> lock(mutex_);
    close(loop);
    loop.done.wait(lock, [&] { return loop.running == 0; });
    if (loop.error) {
      lock.unlock();
      std::rethrow_exception(loop.error);
    }
  }

 private:
  /// Where an idle helper blocks.
  struct Parking {
    std::condition_variable wake;
    bool woken = false;
  };

  Executor() {
    const int helpers = executor_size() - 1;
    idle_.reserve(static_cast<std::size_t>(helpers));
    try {
      for (int h = 0; h < helpers; ++h) {
        helpers_.emplace_back([this] { help(); });
      }
    } catch (const std::system_error&) {
      // Fewer helpers only means less parallelism: every caller drains its
      // own loop.
    }
  }

  /// Wake the most recently parked helper (mutex held).  Last in, first
  /// out, so a run of narrow loops keeps reusing the same few helpers —
  /// their caches and malloc arenas stay warm, and the others stay asleep.
  void wake_one() {
    Parking* p = idle_.back();
    idle_.pop_back();
    p->woken = true;
    p->wake.notify_one();
  }

  /// Stop handing out slots of `loop` (mutex held).
  void close(Loop& loop) {
    const auto it = std::find(open_.begin(), open_.end(), &loop);
    if (it != open_.end()) open_.erase(it);
  }

  void help() {
    Parking parking;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (open_.empty()) {
        parking.woken = false;
        idle_.push_back(&parking);
        parking.wake.wait(lock, [&] { return parking.woken; });
        continue;
      }
      Loop& loop = *open_.front();
      if (loop.next.load() >= loop.n) {
        close(loop);  // every index is claimed; nothing left to help with
        continue;
      }
      const int slot = loop.joined++;
      if (loop.joined == loop.slots) close(loop);
      ++loop.running;
      lock.unlock();
      drain(loop, slot);
      lock.lock();
      if (--loop.running == 0) loop.done.notify_one();
    }
  }

  void drain(Loop& loop, int slot) {
    try {
      while (!loop.failed.load()) {
        const std::size_t i = loop.next.fetch_add(1);
        if (i >= loop.n) return;
        (*loop.fn)(slot, i);
      }
    } catch (...) {
      loop.failed.store(true);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!loop.error) loop.error = std::current_exception();
    }
  }

  std::mutex mutex_;
  // Guarded by mutex_.
  std::vector<Loop*> open_;  ///< loops still handing out slots, oldest first
  std::vector<Parking*> idle_;  ///< parked helpers, most recent last
  bool stop_ = false;
  std::vector<std::thread> helpers_;  ///< last: helpers use the members above
};

}  // namespace

int effective_threads(std::size_t n, int threads) {
  const int size = executor_size();
  const int cap = threads > 0 ? std::min(threads, size) : size;
  return static_cast<int>(
      std::max<std::size_t>(1, std::min(static_cast<std::size_t>(cap), n)));
}

void parallel_for(std::size_t n, int threads,
                  const std::function<void(int, std::size_t)>& fn) {
  const int slots = effective_threads(n, threads);
  if (slots == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  Loop loop;
  loop.n = n;
  loop.slots = slots;
  loop.fn = &fn;
  Executor::instance().run(loop);
}

}  // namespace llamp
