// Helpers shared by tests that run whole checks: a watchdog for
// regressions that used to hang, and a check report with its time
// masked.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <regex>
#include <string>
#include <thread>

namespace iotsan::testing_support {

/// Runs `body` on a helper thread; if it has not returned within
/// `limit`, ends the test binary with a failure instead of hanging ctest.
inline void WithinDeadline(std::chrono::seconds limit,
                           const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "watchdog: still running after %llds (deadlock?)\n",
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
}

/// `iotsan check` text without the one field that varies between runs:
/// the measured search time.
inline std::string MaskTime(const std::string& text) {
  static const std::regex kSeconds(" in [0-9]+\\.[0-9]+s");
  return std::regex_replace(text, kSeconds, " in <t>s");
}

}  // namespace iotsan::testing_support
