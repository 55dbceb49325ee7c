// Helpers shared by tests that run whole checks: a watchdog for
// regressions that used to hang, and the schedule-independent part of a
// check report.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <regex>
#include <sstream>
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

/// `iotsan check` text without what may legitimately vary between runs:
/// the search time, and — because under --jobs > 1 they depend on which
/// worker reaches a state first — the counter-example bodies (lines
/// indented four spaces) and the apps charged along them.  Verdicts,
/// counts, depths and occurrence counts remain (docs/performance.md,
/// "Determinism guarantee").
inline std::string Verdicts(const std::string& text) {
  static const std::regex kSeconds(" in [0-9]+\\.[0-9]+s");
  std::istringstream in(std::regex_replace(text, kSeconds, " in <t>s"));
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("    ", 0) == 0 || line.rfind("  involved apps:", 0) == 0) {
      continue;
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace iotsan::testing_support
