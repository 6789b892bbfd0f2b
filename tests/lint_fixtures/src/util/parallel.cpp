// Fixture (all-negative): the executor itself may construct threads.
#include <thread>

namespace fixture {

void start_helper() { std::thread([] {}).detach(); }

}  // namespace fixture
