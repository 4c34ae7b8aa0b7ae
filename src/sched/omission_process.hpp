// OmissionProcess: the omission-insertion state machine of Definitions 1–2,
// factored out of the OmissionAdversary scheduler wrapper so that BOTH
// execution paths consume one definition of the adversary classes:
//
//   * the step-wise path (OmissionAdversary, the dispatch native engines)
//     takes each delivery from next(): should_omit(), then either an
//     inserted omission or the base scheduler's pick;
//   * the count-based batch engine (engine/batch/) reads the process
//     parameters (rate / remaining budget / quiet horizon) and splits each
//     leap into real and omissive draws by exact geometric/binomial
//     sampling, crediting the omissions back via note_omissions().
//
// Adversary classes:
//   * UO  ("unfair omissive"): may insert omissions forever;
//   * NO  ("eventually non-omissive"): stops inserting after a horizon;
//   * NO1: inserts at most one omission in the whole run;
//   * Budget(o): inserts at most o omissions (the knowledge-of-omissions
//     assumption of §4.1 bounds the total number of omissions by o).
//
// Both paths honor max_burst (a cap on consecutive insertions): the
// step-wise path through should_omit's burst counter, the batch path
// through an exact Markov-chain leap over the same within-burst state
// (leap::sample_capped_burst_leg and the engines' event-punctuated
// loops), which reads and writes the shared counter via burst() /
// set_burst(). When the cap cannot bind — unbounded max_burst, or too
// little omission budget left to ever complete a burst
// (burst_cap_reachable() false, an absorbing condition since
// burst + remaining budget never increases) — the engines fall back to
// the cheaper uncapped leaps, which are then exact as-is.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "util/audit.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace ppfs {

enum class AdversaryKind : std::uint8_t { UO, NO, NO1, Budget };

[[nodiscard]] std::string adversary_kind_name(AdversaryKind k);

struct AdversaryParams {
  AdversaryKind kind = AdversaryKind::UO;
  // Probability of inserting an omissive interaction before each real one
  // (re-rolled after each insertion, geometric burst lengths).
  double rate = 0.1;
  // NO: no omissions are inserted at or after this step index.
  std::size_t quiet_after = std::numeric_limits<std::size_t>::max();
  // Budget / NO1: maximum total omissions (NO1 forces 1).
  std::size_t max_omissions = std::numeric_limits<std::size_t>::max();
  // Cap on consecutive insertions, honored by BOTH engines (the batch
  // path samples the within-burst Markov chain exactly). The spec suffix
  // ":burst=K" / ":burst=inf" overrides it.
  std::size_t max_burst = 8;
  // Which side inserted omissions strike (two-way models; the T-relation
  // faulty outcomes). One-way models have no side distinction and ignore
  // it. Both engines honor this: the native path stamps it on inserted
  // interactions, the batch path selects the matching RuleMatrix outcome
  // class (OmitStarter / OmitReactor / OmitBoth).
  OmitSide side = OmitSide::Both;
};

// Parse a command-line adversary spec:
//   "none" | "uo[:rate]" | "no:quiet[:rate]" | "no1[:rate]" |
//   "budget:B[:rate]"
// e.g. "budget:1000" or "uo:0.05". Returns kind UO with rate 0 for "none".
// The kind may carry a side suffix "@starter" | "@reactor" | "@both"
// (default both), e.g. "uo@starter:0.2" or "budget@reactor:8". A trailing
// ":burst=K" (or ":burst=inf" for unbounded) overrides the default
// consecutive-insertion cap of 8, e.g. "uo:0.2:burst=3".
[[nodiscard]] AdversaryParams parse_adversary_spec(const std::string& spec);

class OmissionProcess {
 public:
  explicit OmissionProcess(AdversaryParams params);

  // Step-wise draw: should the interaction delivered at `step` be an
  // inserted omission? Updates the burst/budget state.
  [[nodiscard]] bool should_omit(Rng& rng, std::size_t step);

  // Step-wise insertion: the delivery at `step` of a run over n agents —
  // an omission inserted on a uniform victim pair, struck on the
  // configured side, when should_omit() says so, else `base`'s pick.
  [[nodiscard]] Interaction next(Scheduler& base, Rng& rng, std::size_t step,
                                 std::size_t n);

  // --- batch-side views -----------------------------------------------------
  // Can any further omission be inserted at or after `step`? Inactivity is
  // absorbing: once false for the current step it stays false forever.
  [[nodiscard]] bool active(std::size_t step) const noexcept;
  [[nodiscard]] double rate() const noexcept { return params_.rate; }
  [[nodiscard]] std::size_t remaining_budget() const noexcept;
  [[nodiscard]] std::size_t quiet_after() const noexcept {
    return params_.quiet_after;
  }
  // Credit `k` omissions sampled by a batch leap.
  void note_omissions(std::size_t k) noexcept { emitted_ += k; }

  // Exact per-ROUND accounting (the round engine's counterpart of the
  // per-leap splits): the number of omissive marks among `deliveries`
  // consecutive deliveries starting at `step`, advancing the burst/budget
  // state exactly as that many should_omit() calls would, in O(burst
  // episodes) draws instead of O(deliveries). The caller must keep the
  // round short of the NO quiet horizon (the round engine caps its length
  // there), so activity changes mid-round only through budget exhaustion,
  // which the walk handles; when the burst cap is unreachable and the
  // budget covers the whole round the count collapses to one
  // Binomial(deliveries, rate) draw.
  [[nodiscard]] std::size_t sample_round_omissions(std::size_t deliveries,
                                                   std::size_t step, Rng& rng);

  // --- shared within-burst state (step-wise should_omit and the batch
  // --- burst-capped leap drive one counter) -------------------------------
  [[nodiscard]] std::size_t burst() const noexcept { return burst_; }
  void set_burst(std::size_t b) noexcept {
    // A reset from a non-zero burst closes one burst episode — both paths
    // (should_omit and the batch leaps) end episodes through here or
    // through should_omit's own reset.
    if (b == 0 && burst_ > 0) PPFS_METRIC(m_burst_len_, record(burst_));
    burst_ = b;
  }
  [[nodiscard]] std::size_t max_burst() const noexcept {
    return params_.max_burst;
  }
  // Can a burst ever reach the cap from the current state? Absorbing once
  // false: burst + remaining budget never increases.
  [[nodiscard]] bool burst_cap_reachable() const noexcept {
    return params_.max_burst != std::numeric_limits<std::size_t>::max() &&
           remaining_budget() > params_.max_burst - burst_;
  }

  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] const AdversaryParams& params() const noexcept { return params_; }

  // Checkpoint round-trip. Only the mutable face (emitted/burst) is
  // persisted — params_ are reconstructed from the scenario spec by the
  // resuming process, which keeps the adversary class definition in exactly
  // one place (parse_adversary_spec).
  void save_state(bin::Writer& w) const {
    w.var(emitted_);
    w.var(burst_);
  }
  void restore_state(bin::Reader& r) {
    emitted_ = r.var();
    burst_ = r.var();
  }

  // Wire the burst-episode-length histogram (obs layer); null detaches.
  // Budget drain is pull-style: engines gauge remaining_budget() at
  // snapshot time instead of instrumenting the draw path.
  void set_metrics(obs::MetricRegistry* reg) {
    m_burst_len_ = reg ? &reg->histogram("adv.burst_len") : nullptr;
  }

  // Runtime-contract audit (util/audit.hpp): the emitted total never
  // exceeds the omission budget, and the shared within-burst counter
  // never exceeds a finite burst cap. Cold code, always compiled; the
  // batch systems fold this into their slice-boundary audits under
  // -DPPFS_AUDIT=ON. Throws AuditError.
  void audit_invariants() const {
    static constexpr const char* kWho = "OmissionProcess";
    audit::check(emitted_ <= params_.max_omissions, kWho,
                 "emitted omissions within budget",
                 "budget " + std::to_string(params_.max_omissions) +
                     ", emitted " + std::to_string(emitted_));
    if (params_.max_burst != std::numeric_limits<std::size_t>::max())
      audit::check(burst_ <= params_.max_burst, kWho,
                   "burst counter within the consecutive-insertion cap",
                   "cap " + std::to_string(params_.max_burst) + ", burst " +
                       std::to_string(burst_));
  }

 private:
  friend struct AuditTestPeer;  // mutation-smoke state corruption (tests)

  AdversaryParams params_;
  std::size_t emitted_ = 0;
  std::size_t burst_ = 0;
  obs::Histogram* m_burst_len_ = nullptr;
};

}  // namespace ppfs
