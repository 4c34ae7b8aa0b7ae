#include "sched/omission_process.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "engine/batch/leap_sampling.hpp"

namespace ppfs {

std::string adversary_kind_name(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::UO: return "uo";
    case AdversaryKind::NO: return "no";
    case AdversaryKind::NO1: return "no1";
    case AdversaryKind::Budget: return "budget";
  }
  throw std::invalid_argument("adversary_kind_name: bad kind");
}

AdversaryParams parse_adversary_spec(const std::string& spec) {
  AdversaryParams p;
  if (spec == "none" || spec.empty()) {
    p.rate = 0.0;
    return p;
  }
  // Split on ':' into head and up to two numeric fields.
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t next = spec.find(':', pos);
    if (next == std::string::npos) {
      parts.push_back(spec.substr(pos));
      break;
    }
    parts.push_back(spec.substr(pos, next - pos));
    pos = next + 1;
  }
  const auto number = [&](std::size_t i) -> double {
    try {
      std::size_t used = 0;
      const double v = std::stod(parts.at(i), &used);
      if (used != parts[i].size() || v < 0)
        throw std::invalid_argument("trailing garbage");
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_adversary_spec: bad number '" +
                                  parts.at(i) + "' in '" + spec + "'");
    }
  };
  // Count fields (quiet_after, budget) must be plain integers: stoull, no
  // float round-trip (a double->size_t cast is UB for huge inputs and
  // silently truncates fractional ones).
  const auto count = [&](std::size_t i) -> std::size_t {
    try {
      std::size_t used = 0;
      const unsigned long long v = std::stoull(parts.at(i), &used);
      if (used != parts[i].size())
        throw std::invalid_argument("trailing garbage");
      return static_cast<std::size_t>(v);
    } catch (const std::exception&) {
      throw std::invalid_argument("parse_adversary_spec: bad count '" +
                                  parts.at(i) + "' in '" + spec + "'");
    }
  };
  const auto require_fields = [&](std::size_t min, std::size_t max) {
    if (parts.size() < min || parts.size() > max)
      throw std::invalid_argument("parse_adversary_spec: wrong number of "
                                  "fields in '" + spec + "'");
  };
  // Optional trailing "burst=K" / "burst=inf" field overriding the
  // consecutive-insertion cap.
  if (parts.size() > 1 && parts.back().rfind("burst=", 0) == 0) {
    const std::string v = parts.back().substr(6);
    if (v == "inf" || v == "none")
      p.max_burst = std::numeric_limits<std::size_t>::max();
    else {
      try {
        // stoull would wrap a negative value instead of throwing.
        if (v.empty() || v[0] == '-' || v[0] == '+')
          throw std::invalid_argument("bad burst");
        std::size_t used = 0;
        const unsigned long long b = std::stoull(v, &used);
        if (used != v.size() || b == 0)
          throw std::invalid_argument("bad burst");
        p.max_burst = static_cast<std::size_t>(b);
      } catch (const std::exception&) {
        throw std::invalid_argument(
            "parse_adversary_spec: bad burst cap '" + v + "' in '" + spec +
            "' (want a positive integer or inf)");
      }
    }
    parts.pop_back();
  }
  // Optional "@side" suffix on the kind ("uo@starter:0.2").
  std::string head = parts[0];
  if (const std::size_t at = head.find('@'); at != std::string::npos) {
    const std::string side = head.substr(at + 1);
    head.resize(at);
    if (side == "starter") p.side = OmitSide::Starter;
    else if (side == "reactor") p.side = OmitSide::Reactor;
    else if (side == "both") p.side = OmitSide::Both;
    else
      throw std::invalid_argument("parse_adversary_spec: unknown side '" +
                                  side + "' (want starter|reactor|both)");
  }
  if (head == "uo") {
    require_fields(1, 2);
    p.kind = AdversaryKind::UO;
    if (parts.size() > 1) p.rate = number(1);
  } else if (head == "no") {
    require_fields(2, 3);
    p.kind = AdversaryKind::NO;
    p.quiet_after = count(1);
    if (parts.size() > 2) p.rate = number(2);
  } else if (head == "no1") {
    require_fields(1, 2);
    p.kind = AdversaryKind::NO1;
    p.max_omissions = 1;
    if (parts.size() > 1) p.rate = number(1);
  } else if (head == "budget") {
    require_fields(2, 3);
    p.kind = AdversaryKind::Budget;
    p.max_omissions = count(1);
    if (parts.size() > 2) p.rate = number(2);
  } else {
    throw std::invalid_argument("parse_adversary_spec: unknown kind '" + head +
                                "' (want none|uo|no|no1|budget)");
  }
  if (p.rate < 0.0 || p.rate > 1.0)
    throw std::invalid_argument("parse_adversary_spec: rate must be in [0, 1]");
  return p;
}

OmissionProcess::OmissionProcess(AdversaryParams params) : params_(params) {
  if (params_.kind == AdversaryKind::NO1) params_.max_omissions = 1;
}

bool OmissionProcess::active(std::size_t step) const noexcept {
  if (params_.rate <= 0.0) return false;
  if (emitted_ >= params_.max_omissions) return false;
  if (params_.kind == AdversaryKind::NO && step >= params_.quiet_after)
    return false;
  return true;
}

std::size_t OmissionProcess::remaining_budget() const noexcept {
  return emitted_ >= params_.max_omissions ? 0
                                           : params_.max_omissions - emitted_;
}

std::size_t OmissionProcess::sample_round_omissions(std::size_t deliveries,
                                                    std::size_t step,
                                                    Rng& rng) {
  if (deliveries == 0) return 0;
  if (!active(step)) {
    // Every delivery is real; the first one closes any open burst episode,
    // exactly as should_omit would.
    set_burst(0);
    return 0;
  }
  const double p = params_.rate;
  if (!burst_cap_reachable() && remaining_budget() >= deliveries) {
    // The cap can never bind again (absorbing) and the budget cannot run
    // out mid-round: every delivery is an independent rate coin. Burst
    // bookkeeping is irrelevant from here on, as in the uncapped leaps.
    const std::size_t k = leap::sample_binomial(deliveries, p, rng);
    emitted_ += k;
    return k;
  }
  // Exact episode walk over the within-burst Markov chain, one burst
  // episode per iteration (the mark-only sibling of
  // leap::sample_capped_burst_leg).
  std::size_t om = 0;
  std::size_t i = 0;
  while (i < deliveries) {
    if (!active(step)) {  // budget exhausted mid-round
      set_burst(0);
      break;
    }
    if (burst_ >= params_.max_burst) {
      // A full burst forces the next delivery real (no rate coin).
      set_burst(0);
      ++i;
      continue;
    }
    // Run of real deliveries before the next insertion (each resets the
    // burst, so the insertion probability is p throughout).
    const std::size_t room = deliveries - i;
    const std::size_t run = leap::sample_bernoulli_run(p, rng, room);
    if (run > 0) set_burst(0);
    i += run;
    if (run >= room) break;
    // The next delivery opens (or continues) a burst: the first insertion
    // plus its geometric continuation, truncated by the burst cap, the
    // budget, and the round end.
    const std::size_t limit = std::min(
        {params_.max_burst - burst_, remaining_budget(), deliveries - i});
    const std::size_t k =
        1 + leap::sample_bernoulli_run(1.0 - p, rng, limit - 1);
    om += k;
    emitted_ += k;
    burst_ += k;
    i += k;
    if (k < limit) {
      // The burst ended because the rate coin came up real: consume that
      // real delivery and reset.
      set_burst(0);
      ++i;
    }
    // k == limit: the loop head classifies what bound it (burst cap ->
    // forced real, budget -> real tail, round end -> exit).
  }
  return om;
}

bool OmissionProcess::should_omit(Rng& rng, std::size_t step) {
  if (!active(step) || burst_ >= params_.max_burst || !rng.chance(params_.rate)) {
    if (burst_ > 0) PPFS_METRIC(m_burst_len_, record(burst_));
    burst_ = 0;
    return false;
  }
  ++emitted_;
  ++burst_;
  return true;
}

Interaction OmissionProcess::next(Scheduler& base, Rng& rng, std::size_t step,
                                  std::size_t n) {
  if (!should_omit(rng, step)) return base.next(rng, step);
  Interaction ia = uniform_ordered_pair(rng, n);
  ia.omissive = true;
  ia.side = params_.side;
  return ia;
}

}  // namespace ppfs
