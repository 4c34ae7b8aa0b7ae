// Behavior of every protocol in the library under the native TW engine:
// each workload must converge to its declared verdict under the uniform
// scheduler (globally fair with probability 1).
#include <gtest/gtest.h>

#include "engine/workload_runner.hpp"
#include "protocols/counting.hpp"
#include "protocols/leader.hpp"
#include "protocols/majority.hpp"
#include "protocols/parity.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

struct SweepParam {
  std::size_t n;
  std::uint64_t seed;
};

class WorkloadSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(WorkloadSweep, AllStandardWorkloadsConverge) {
  const auto [n, seed] = GetParam();
  for (const Workload& w : standard_workloads(n)) {
    RunOptions opt;
    opt.max_steps = 400'000 + 4000 * n;
    const RunResult res = run_native_workload(w, seed, opt);
    EXPECT_TRUE(res.converged) << w.name << " did not converge in " << res.steps
                               << " steps";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorkloadSweep,
                         ::testing::Values(SweepParam{4, 1}, SweepParam{5, 2},
                                           SweepParam{8, 3}, SweepParam{13, 4},
                                           SweepParam{20, 5}, SweepParam{50, 6},
                                           SweepParam{100, 7}));

TEST(ThresholdCounting, RejectsZeroK) {
  EXPECT_THROW(make_threshold_counting(0), std::invalid_argument);
}

TEST(ThresholdCounting, PoolsWeights) {
  auto p = make_threshold_counting(4);
  EXPECT_EQ(p->delta(1, 2), (StatePair{3, 0}));
  EXPECT_EQ(p->delta(2, 2), (StatePair{4, 4}));  // reached k: broadcast
  EXPECT_EQ(p->delta(4, 0), (StatePair{4, 4}));  // sated converts
  EXPECT_EQ(p->delta(0, 4), (StatePair{4, 4}));
  EXPECT_TRUE(p->is_noop(1, 0));
}

TEST(ThresholdCounting, ExactBoundaryFalse) {
  // k-1 ones: predicate must stabilize to 0.
  const std::size_t n = 10, k = 4;
  auto p = make_threshold_counting(k);
  Workload w{"th", p, make_initial({{1, k - 1}, {0, n - k + 1}}), 0, nullptr};
  const auto res = run_native_workload(w, 99);
  EXPECT_TRUE(res.converged);
}

TEST(ThresholdCounting, ExactBoundaryTrue) {
  const std::size_t n = 10, k = 4;
  auto p = make_threshold_counting(k);
  Workload w{"th", p, make_initial({{1, k}, {0, n - k}}), 1, nullptr};
  const auto res = run_native_workload(w, 99);
  EXPECT_TRUE(res.converged);
}

TEST(ModCounting, Validates) {
  EXPECT_THROW(make_mod_counting(1, 0), std::invalid_argument);
  EXPECT_THROW(make_mod_counting(3, 3), std::invalid_argument);
}

TEST(ModCounting, MergeAndVerdict) {
  auto p = make_mod_counting(3, 2);  // sum == 2 (mod 3)?
  // active(1) meets active(1): starter active(2), reactor passive-true.
  const StatePair out = p->delta(1, 1);
  EXPECT_EQ(out.starter, 2u);
  EXPECT_EQ(p->output(out.reactor), 1);
  EXPECT_EQ(p->output(out.starter), 1);
}

class ModSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModSweep, CorrectVerdictForEveryResidue) {
  const std::size_t ones = GetParam();
  const std::size_t n = 12, m = 4;
  for (std::size_t r = 0; r < m; ++r) {
    auto p = make_mod_counting(m, r);
    const int expected = (ones % m) == r ? 1 : 0;
    Workload w{"mod", p, make_initial({{1, ones}, {0, n - ones}}), expected,
               nullptr};
    const auto res = run_native_workload(w, 7 + ones * 13 + r);
    EXPECT_TRUE(res.converged) << "ones=" << ones << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(OnesCounts, ModSweep, ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(LeaderElection, TwoAgents) {
  const auto st = leader_states();
  auto p = make_leader_election();
  Workload w{"leader", p, {st.leader, st.leader}, -1,
             [st](const std::vector<std::size_t>& c) { return c[st.leader] == 1; }};
  const auto res = run_native_workload(w, 3);
  EXPECT_TRUE(res.converged);
}

TEST(ExactMajority, MinorityOneVoteLoses) {
  auto p = make_exact_majority();
  const auto st = exact_majority_states();
  // 6 vs 5: opinion 1 must win even with the slimmest margin.
  Workload w{"exact", p, make_initial({{st.big_x, 6}, {st.big_y, 5}}), 1, nullptr};
  const auto res = run_native_workload(w, 17);
  EXPECT_TRUE(res.converged);
}

TEST(ExactMajority, OtherOpinionWins) {
  auto p = make_exact_majority();
  const auto st = exact_majority_states();
  Workload w{"exact", p, make_initial({{st.big_x, 5}, {st.big_y, 6}}), 0, nullptr};
  const auto res = run_native_workload(w, 18);
  EXPECT_TRUE(res.converged);
}

TEST(Registry, StandardSuiteShape) {
  const auto suite = standard_workloads(10);
  EXPECT_GE(suite.size(), 8u);
  for (const auto& w : suite) {
    EXPECT_FALSE(w.name.empty());
    EXPECT_NE(w.protocol, nullptr);
    EXPECT_EQ(w.initial.empty(), false);
    EXPECT_TRUE(w.expected_output >= 0 || w.converged != nullptr) << w.name;
  }
  EXPECT_THROW(standard_workloads(3), std::invalid_argument);
}

TEST(Registry, CoreSuiteIsSubsetSized) {
  EXPECT_LT(core_workloads(10).size(), standard_workloads(10).size());
}

TEST(Registry, LookupsResolveTheFirstPrefixMatch) {
  EXPECT_EQ(find_workload("exact-majority", 10).name, "exact-majority(n=10)");
  EXPECT_EQ(find_workload("exact-majority-", 10).name,
            "exact-majority-gap(n=10)");
  EXPECT_EQ(find_workload("threshold3", 10).name, "threshold3-true(n=10)");
  EXPECT_EQ(find_workload("or(n=10)", 10).name, "or(n=10)");
  // A lookup builds the same workload as the suite's entry.
  for (const Workload& w : standard_workloads(12)) {
    const Workload found = find_workload(w.name, 12);
    EXPECT_EQ(found.name, w.name);
    EXPECT_EQ(found.initial, w.initial);
    EXPECT_EQ(found.expected_output, w.expected_output);
  }
  EXPECT_THROW((void)find_workload("no-such-workload", 10),
               std::invalid_argument);
  EXPECT_THROW((void)find_workload("or", 3), std::invalid_argument);
}

TEST(Registry, LookupsAboveThePerAgentLimitCarryCounts) {
  const Workload w = find_workload("or", kPerAgentLimit + 1);
  EXPECT_TRUE(w.initial.empty());
  ASSERT_EQ(w.initial_counts.size(), 2u);
  EXPECT_EQ(w.initial_counts[0] + w.initial_counts[1], kPerAgentLimit + 1);
}

}  // namespace
}  // namespace ppfs
