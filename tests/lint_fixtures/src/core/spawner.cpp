// Fixture: threads constructed outside the executor (conc-thread).
#include <thread>
#include <vector>

namespace fixture {

void fan_out(int n) {
  std::vector<std::thread> pool;
  for (int t = 0; t < n; ++t) pool.emplace_back([] {});
  for (auto& th : pool) th.join();
  std::thread one([] {});
  one.join();
  std::thread([] {}).detach();
}

// Negative cases: a plain member-style declaration, a reference, nested
// names, and a reasoned allow() are not constructions the rule reports.
struct Holder {
  std::thread worker;
};

unsigned width(std::thread& t) {
  (void)t;
  const std::thread::id self = std::this_thread::get_id();
  (void)self;
  return std::thread::hardware_concurrency();
}

void daemon(Holder& h) {
  // llamp-lint: allow(conc-thread): fixture's long-lived service thread
  h.worker = std::thread([] {});
}

}  // namespace fixture
