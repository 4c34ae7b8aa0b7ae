// Fixed-seed trajectory pins for the two count-space systems' omission-
// aware leaps (leap::advance_with_omissions): one cell per branch of the
// shared driver — the burst-capped leg, the uncapped binomial split, the
// forced-real delivery after a full burst, the event-punctuated leap over
// changing omissive outcomes, the NO quiet horizon and Budget inactivity.
// Each cell drives advance() over a fixed interaction count and pins the
// steps, omissions, final (projected) counts and the Rng draw ledger, so
// any change to the order or number of draws on these paths fails here
// instead of silently shifting every seeded experiment. The values were
// recorded from the two per-system loops the shared driver replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/batch/batch_system.hpp"
#include "engine/batch/sim_batch_system.hpp"
#include "protocols/registry.hpp"
#include "sim/sim_rules.hpp"
#include "util/rng.hpp"

namespace ppfs {
namespace {

constexpr std::size_t kInteractions = 20000;
constexpr std::size_t kSlice = 997;

struct Pin {
  std::size_t steps;
  std::size_t omissions;
  std::vector<std::size_t> counts;
  std::uint64_t draws;
};

// Which omissive leg a cell must exercise: the driver branches on whether
// omissive deliveries can change counts at all.
enum class Omissive { Transparent, Changing };

template <class Sys>
Pin drive(Sys& sys, std::uint64_t seed) {
  Rng rng(seed);
  std::size_t covered = 0;
  while (covered < kInteractions)
    covered += sys.advance(std::min(kSlice, kInteractions - covered), rng)
                   .interactions;
  Pin pin{sys.steps(), sys.omissions(), {}, rng.draw_count()};
  if constexpr (std::is_same_v<Sys, BatchSystem>) pin.counts = sys.counts();
  else pin.counts = sys.projected_counts();
  return pin;
}

void expect_pin(const Pin& got, const Pin& want, const std::string& label) {
  std::string counts;
  for (const std::size_t c : got.counts) counts += std::to_string(c) + ", ";
  SCOPED_TRACE(label + ": got {" + std::to_string(got.steps) + ", " +
               std::to_string(got.omissions) + ", {" + counts + "}, " +
               std::to_string(got.draws) + "}");
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.omissions, want.omissions);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.draws, want.draws);
}

// Exact majority (margin 2) at n = 1000 under T1: omissions striking both
// sides are (id, id) global no-ops, starter-side ones apply (id, fr).
Pin batch_cell(const std::string& adversary, Omissive kind) {
  const Workload w = find_workload("exact-majority", 1000);
  std::vector<std::size_t> counts(w.protocol->num_states(), 0);
  for (const State s : w.initial) ++counts[s];
  BatchSystem sys(RuleMatrix::compile(w.protocol, Model::T1), counts);
  const AdversaryParams adv = parse_adversary_spec(adversary);
  sys.set_omission_process(adv);
  const std::uint64_t w_omit =
      sys.changing_weight(sys.rules().omission_class(adv.side));
  EXPECT_EQ(w_omit == 0, kind == Omissive::Transparent) << adversary;
  return drive(sys, 20261020);
}

// SID's per-agent ids keep >= n wrapper states live, so its no-op streaks
// reach the leap threshold (occupied^2) only in tiny populations: n = 8
// for SID, n = 200 for SKnO and naive.
Pin sim_cell(const std::string& sim, Model model, const std::string& adversary,
             Omissive kind) {
  const std::size_t n = sim == "sid" ? 8 : 200;
  const Workload w = find_workload("exact-majority", n);
  std::shared_ptr<DynamicRuleSource> rules =
      make_sim_rule_source(parse_sim_spec(sim), model, w.protocol, n);
  EXPECT_EQ(rules->omission_transparent(), kind == Omissive::Transparent);
  SimBatchSystem sys(rules, w.initial);
  sys.set_omission_process(parse_adversary_spec(adversary));
  return drive(sys, 20261021);
}

TEST(LeapPins, BatchCappedBurstLeg) {
  expect_pin(batch_cell("uo:0.9:burst=4", Omissive::Transparent),
             {20000, 15119, {90, 88, 423, 399}, 27131}, "batch uo:0.9:burst=4");
}

TEST(LeapPins, BatchBinomialSplit) {
  expect_pin(batch_cell("uo:0.3:burst=inf", Omissive::Transparent),
             {20000, 5959, {32, 30, 473, 465}, 40000}, "batch uo:0.3:burst=inf");
}

TEST(LeapPins, BatchForcedRealAfterFullBurst) {
  expect_pin(batch_cell("uo@starter:0.6:burst=1", Omissive::Changing),
             {20000, 7497, {24, 35, 413, 528}, 38465}, "batch uo@starter:0.6:burst=1");
}

TEST(LeapPins, BatchEventPunctuated) {
  expect_pin(batch_cell("uo@starter:0.3:burst=inf", Omissive::Changing),
             {20000, 5968, {30, 18, 555, 397}, 36484}, "batch uo@starter:0.3:burst=inf");
}

TEST(LeapPins, BatchQuietHorizon) {
  expect_pin(batch_cell("no:5000:0.3", Omissive::Transparent), {20000, 1422, {27, 25, 477, 471}, 25363},
             "batch no:5000:0.3");
  expect_pin(batch_cell("no@starter:5000:0.3", Omissive::Changing),
             {20000, 1477, {31, 22, 528, 419}, 26633}, "batch no@starter:5000:0.3");
}

TEST(LeapPins, BatchBudgetInactivity) {
  expect_pin(batch_cell("budget@starter:50:0.3", Omissive::Changing),
             {20000, 50, {30, 25, 496, 449}, 22919}, "batch budget@starter:50:0.3");
  expect_pin(batch_cell("budget:50:0.3:burst=inf", Omissive::Transparent),
             {20000, 50, {30, 28, 478, 464}, 22825}, "batch budget:50:0.3:burst=inf");
}

TEST(LeapPins, SimCappedBurstLeg) {
  expect_pin(sim_cell("sid", Model::I1, "uo:0.9:burst=4", Omissive::Transparent),
             {20000, 15114, {2, 0, 6, 0}, 54717}, "sim sid uo:0.9:burst=4");
}

TEST(LeapPins, SimBinomialSplit) {
  expect_pin(
      sim_cell("sid", Model::I1, "uo:0.9:burst=inf", Omissive::Transparent),
      {20000, 18033, {2, 0, 6, 0}, 50328}, "sim sid uo:0.9:burst=inf");
}

TEST(LeapPins, SimForcedRealAfterFullBurst) {
  expect_pin(
      sim_cell("skno:o=2", Model::I3, "uo:0.6:burst=1", Omissive::Changing),
      {20000, 7507, {49, 49, 52, 50}, 70366}, "sim skno uo:0.6:burst=1");
}

TEST(LeapPins, SimEventPunctuated) {
  expect_pin(
      sim_cell("skno:o=2", Model::I3, "uo:0.3:burst=inf", Omissive::Changing),
      {20000, 5956, {44, 44, 63, 49}, 76276}, "sim skno uo:0.3:burst=inf");
  expect_pin(
      sim_cell("naive", Model::T1, "uo@starter:0.3", Omissive::Changing),
      {20000, 5878, {0, 1, 61, 138}, 51635}, "sim naive uo@starter:0.3");
}

TEST(LeapPins, SimQuietHorizon) {
  expect_pin(
      sim_cell("naive", Model::T1, "no@starter:5000:0.3", Omissive::Changing),
      {20000, 1437, {1, 2, 58, 139}, 36151}, "sim naive no@starter:5000:0.3");
  expect_pin(sim_cell("sid", Model::I1, "no:5000:0.9", Omissive::Transparent),
             {20000, 4163, {2, 0, 6, 0}, 42847}, "sim sid no:5000:0.9");
}

TEST(LeapPins, SimBudgetInactivity) {
  expect_pin(
      sim_cell("skno:o=8", Model::I3, "budget:8:0.2", Omissive::Changing),
      {20000, 8, {97, 96, 5, 2}, 57768}, "sim skno budget:8:0.2");
  expect_pin(
      sim_cell("sid", Model::I1, "budget:5000:0.9:burst=inf",
               Omissive::Transparent),
      {20000, 5000, {2, 0, 6, 0}, 43110}, "sim sid budget:5000:0.9:burst=inf");
}

}  // namespace
}  // namespace ppfs
