// One-way workload registry: every workload converges under both the
// per-agent native engine and the count-space batch engine, in its
// declared model family.
#include <gtest/gtest.h>

#include <string>

#include "engine/batch/dispatch.hpp"
#include "protocols/registry.hpp"

namespace ppfs {
namespace {

CountsProbe probe_for(const OneWayWorkload& w) {
  auto conv = w.converged;
  const int expect = w.expected_output;
  return [conv, expect](const std::vector<std::size_t>& counts,
                        const Protocol& p) {
    if (conv) return conv(counts);
    return counts_consensus_output(counts, p) == expect;
  };
}

TEST(OneWayWorkloads, ConvergeUnderBothEngines) {
  const std::size_t n = 32;
  for (const auto& kind : engine_kinds()) {
    for (const OneWayWorkload& w : one_way_workloads(n)) {
      EngineConfig config;
      config.model = w.io ? Model::IO : Model::IT;
      auto engine = make_engine(kind, w.protocol, w.initial, config);
      UniformScheduler sched(n);
      Rng rng(91);
      RunOptions opt;
      opt.max_steps = 5'000'000;
      const RunResult res =
          run_engine_until(*engine, sched, rng, probe_for(w), opt);
      EXPECT_TRUE(res.converged) << kind << " on " << w.name;
      EXPECT_EQ(engine->model(), config.model) << w.name;
    }
  }
}

TEST(OneWayWorkloads, ConvergeUnderBudgetOmissions) {
  // A Budget adversary (model lifted to I1/I2 semantics as configured)
  // must not prevent convergence of the IO workloads.
  const std::size_t n = 32;
  for (const auto& kind : engine_kinds()) {
    for (const OneWayWorkload& w : one_way_workloads(n)) {
      if (!w.io) continue;
      EngineConfig config;
      config.model = Model::IO;
      config.adversary = parse_adversary_spec("budget:20:0.2");
      auto engine = make_engine(kind, w.protocol, w.initial, config);
      EXPECT_EQ(engine->model(), Model::I1) << w.name;  // lifted
      UniformScheduler sched(n);
      Rng rng(92);
      RunOptions opt;
      opt.max_steps = 5'000'000;
      const RunResult res =
          run_engine_until(*engine, sched, rng, probe_for(w), opt);
      EXPECT_TRUE(res.converged) << kind << " on " << w.name;
      EXPECT_LE(engine->omissions(), 20u) << kind << " on " << w.name;
      EXPECT_GT(engine->omissions(), 0u) << kind << " on " << w.name;
    }
  }
}

TEST(OneWayWorkloads, MajorityPrefixResolvesExactMajorityRequests) {
  // CLI requests for "exact-majority" on one-way models resolve to the
  // cancellation majority entry by prefix.
  const auto all = one_way_workloads(16);
  bool found = false;
  for (const auto& w : all)
    found |= w.name.rfind("exact-majority", 0) == 0;
  EXPECT_TRUE(found);
}

TEST(OneWayWorkloads, RegistryRejectsTinyPopulations) {
  EXPECT_THROW((void)one_way_workloads(3), std::invalid_argument);
  EXPECT_THROW((void)find_one_way_workload("or", 3, Model::IO),
               std::invalid_argument);
}

TEST(OneWayWorkloads, LookupsResolveTheFirstPrefixMatch) {
  EXPECT_EQ(find_one_way_workload("exact-majority", 16, Model::IO).name,
            "exact-majority-1way(n=16)");
  EXPECT_EQ(find_one_way_workload("or", 16, Model::IO).name, "or(n=16)");
  EXPECT_EQ(find_one_way_workload("beacon-or", 16, Model::IT).name,
            "beacon-or(n=16)");
  for (const OneWayWorkload& w : one_way_workloads(16)) {
    const OneWayWorkload found = find_one_way_workload(w.name, 16, Model::IT);
    EXPECT_EQ(found.name, w.name);
    EXPECT_EQ(found.initial, w.initial);
    EXPECT_EQ(found.io, w.io);
  }
  // IO forbids g != id; the error names the workload.
  try {
    (void)find_one_way_workload("beacon-or", 16, Model::IO);
    FAIL() << "IO accepted an IT-only workload";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "workload 'beacon-or(n=16)' needs g != id, IO forbids it");
  }
  EXPECT_THROW((void)find_one_way_workload("nope", 16, Model::IT),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppfs
