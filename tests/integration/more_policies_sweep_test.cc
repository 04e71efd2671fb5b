// The integration policy sweep over every policy AllPolicyNames() lists
// beyond the first eight, which end_to_end_test.cc sweeps. It runs in its
// own binary so that end_to_end_test.cc's test names do not move (see
// policy_sweep.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "policy_sweep.h"

namespace iosched {
namespace {

std::vector<SweepCase> MoreCases() {
  const std::vector<std::string>& first = FirstSweptPolicies();
  std::vector<SweepCase> cases;
  for (const std::string& p : core::AllPolicyNames()) {
    if (std::find(first.begin(), first.end(), p) != first.end()) continue;
    for (std::uint64_t seed : {11ull, 97ull}) {
      cases.push_back({p, seed});
    }
  }
  return cases;
}

class MorePoliciesSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MorePoliciesSweep, GlobalInvariantsHold) {
  ExpectGlobalInvariants(GetParam());
}

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  return info.param.policy + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Policies, MorePoliciesSweep,
                         ::testing::ValuesIn(MoreCases()), CaseName);

// Together the two sweeps cover every listed policy exactly once.
TEST(MorePoliciesSweep, SweepsCoverEveryListedPolicy) {
  const std::vector<std::string>& all = core::AllPolicyNames();
  for (const std::string& p : FirstSweptPolicies()) {
    EXPECT_EQ(std::count(all.begin(), all.end(), p), 1) << p;
  }
  EXPECT_EQ(2 * FirstSweptPolicies().size() + MoreCases().size(),
            2 * all.size());
  EXPECT_FALSE(MoreCases().empty());
}

}  // namespace
}  // namespace iosched
