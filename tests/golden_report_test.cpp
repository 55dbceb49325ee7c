// Golden reports: the default `iotsan check` text (core::RunCheck) of the
// six Table 5 expert groups, byte for byte against tests/data/.  The
// goldens pin every verdict, counter-example, note line and charged app;
// the only scrubbed field is the " in N.NNNs" search time.  Regenerate
// them only for an intended change of the report.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
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
  static const std::regex kSeconds(" in [0-9]+\\.[0-9]+s");
  return std::regex_replace(core::RunCheck(request).text, kSeconds,
                            " in <t>s");
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

TEST(GoldenReportTest, ParallelChecksMatchGoldenOutsideCounterExamples) {
  for (std::size_t g = 0; g < corpus::ExpertGroups().size(); ++g) {
    EXPECT_EQ(FirstDifference(testing_support::Verdicts(ReadGolden(g)),
                              testing_support::Verdicts(CheckText(g, 4))),
              "")
        << "expert group " << g + 1;
  }
}

}  // namespace
}  // namespace iotsan
