// Golden reports: the default `iotsan check` text (core::RunCheck) of the
// six Table 5 expert groups, byte for byte against tests/data/, at one
// lane, four and all of them.  The goldens pin every verdict,
// counter-example, note line and charged app; the only scrubbed field is
// the " in N.NNNs" search time.  Regenerate them only for an intended
// change of the report.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/service.hpp"
#include "corpus/groups.hpp"
#include "test_support.hpp"

namespace iotsan {
namespace {

std::string ReadGolden(std::size_t group) {
  const std::string path = std::string(IOTSAN_TEST_DATA_DIR) +
                           "/expert_group_" + std::to_string(group + 1) +
                           ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string CheckText(std::size_t group, int jobs) {
  const corpus::SystemUnderTest& sut = corpus::ExpertGroups()[group];
  core::CheckRequest request;
  request.deployment = sut.deployment;
  request.extra_sources = sut.extra_sources;
  request.options.jobs = jobs;
  return testing_support::MaskTime(core::RunCheck(request).text);
}

/// "" when equal, else the first differing line of each.
std::string FirstDifference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string x;
  std::string y;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, x));
    const bool more_b = static_cast<bool>(std::getline(b, y));
    if (!more_a && !more_b) return want == got ? "" : "trailing bytes differ";
    if (!more_a || !more_b || x != y) {
      return "line " + std::to_string(line) + ":\n  golden: " +
             (more_a ? x : "<end>") + "\n  actual: " + (more_b ? y : "<end>");
    }
  }
}

TEST(GoldenReportTest, SerialChecksMatchGoldenText) {
  for (std::size_t g = 0; g < corpus::ExpertGroups().size(); ++g) {
    const std::string golden = ReadGolden(g);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(FirstDifference(golden, CheckText(g, 1)), "")
        << "expert group " << g + 1;
  }
}

TEST(GoldenReportTest, ParallelChecksMatchGoldenText) {
  // Each group has several related sets, searched one per lane, so no
  // lane count may change a counter-example or a charged app.  Repeats
  // give other schedules a chance to show.
  for (std::size_t g = 0; g < corpus::ExpertGroups().size(); ++g) {
    const std::string golden = ReadGolden(g);
    for (const int jobs : {4, 0}) {
      for (int run = 0; run < 3; ++run) {
        EXPECT_EQ(FirstDifference(golden, CheckText(g, jobs)), "")
            << "expert group " << g + 1 << ", jobs " << jobs << ", run "
            << run;
      }
    }
  }
}

}  // namespace
}  // namespace iotsan
