// Shared leap samplers for the count-space engines (BatchSystem over dense
// closed universes, SimBatchSystem over sparse open ones): geometric no-op
// run lengths with exact integer trials in the dense regime and
// floating-point inversion in the sparse one, the binomial splitter that
// tallies omissive no-ops inside a leap, and advance_with_omissions, the
// one omission-aware leap loop both engines run. These are the single
// implementation both engines draw from.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "engine/batch/configuration.hpp"
#include "engine/stats.hpp"
#include "obs/metrics.hpp"
#include "sched/omission_process.hpp"
#include "util/rng.hpp"

namespace ppfs::leap {

// Failures before the first success of a Bernoulli(W/T) sequence, capped
// at `cap`. Exact integer trials when a success is cheap to wait for;
// floating-point inversion when p < 1/64 (error ~1e-16, amortized over
// >= 64 skipped interactions).
inline std::size_t sample_noop_run(std::uint64_t w, std::uint64_t t, Rng& rng,
                                   std::size_t cap) {
  if (w >= t) return 0;
  if (w >= t / 64) {
    std::size_t k = 0;
    while (k < cap && rng.below(t) >= w) ++k;
    return k;
  }
  const double p = static_cast<double>(w) / static_cast<double>(t);
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;  // uniform() is in [0, 1); keep log finite
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(g);
}

// Same, for a double success probability (used when the omission rate is
// mixed into the per-delivery success): Bernoulli(p) trials when p is
// large, inversion below 1/64.
inline std::size_t sample_bernoulli_run(double p, Rng& rng, std::size_t cap) {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return cap;
  if (p >= 1.0 / 64) {
    std::size_t k = 0;
    while (k < cap && !rng.chance(p)) ++k;
    return k;
  }
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  const double g = std::floor(std::log(u) / std::log1p(-p));
  if (g >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(g);
}

// Successes among n Bernoulli(p) trials, counted by skipping geometric
// failure gaps — exact (up to the run samplers' ~1e-16 inversion
// rounding) at O(np) cost regardless of n.
inline std::size_t count_sparse_successes(std::size_t n, double p, Rng& rng) {
  std::size_t k = 0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t gap = sample_bernoulli_run(p, rng, n - i);
    i += gap;
    if (i >= n) break;
    ++k;
    ++i;
  }
  return k;
}

// Binomial(n, p) draw, used to tally the omissive no-ops inside a leap
// whose draws cannot change the configuration. Geometric-gap counting
// whenever either outcome is sparse (mean <= 256), an exact Bernoulli
// loop for small n otherwise, and a clamped normal approximation only
// when both the success and failure counts are large — where its
// relative error is negligible; it touches the omission tally and hence
// only the *pacing* of a budget's exhaustion, never which rule fires.
inline std::size_t sample_binomial(std::size_t n, double p, Rng& rng) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  const double mean = static_cast<double>(n) * p;
  const double anti_mean = static_cast<double>(n) * (1.0 - p);
  if (mean <= 256.0) return count_sparse_successes(n, p, rng);
  if (anti_mean <= 256.0) return n - count_sparse_successes(n, 1.0 - p, rng);
  constexpr std::size_t kExactLimit = 4096;
  if (n <= kExactLimit) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) k += rng.chance(p) ? 1 : 0;
    return k;
  }
  const double sigma = std::sqrt(mean * (1.0 - p));
  // Box-Muller from two uniforms.
  double u1 = rng.uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = rng.uniform();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double v = std::round(mean + sigma * z);
  if (v <= 0.0) return 0;
  if (v >= static_cast<double>(n)) return n;
  return static_cast<std::size_t>(v);
}

// One leg of the exact BURST-CAPPED omission leap: the step-wise
// adversary (OmissionProcess::should_omit) inserts omissions in bursts of
// at most `max_burst` consecutive insertions — after a full burst the next
// delivery is forcibly real and the burst counter resets. The chain over
// the within-burst state b is:
//
//   b < max_burst: omission w.p. p (b -> b+1), else real (b -> 0), and a
//                  real delivery changes counts w.p. w/t;
//   b = max_burst: the next delivery is real with certainty (no rate
//                  coin), b -> 0.
//
// This sampler covers the case where omissive deliveries are GLOBAL
// NO-OPS (w_omit = 0 / omission-transparent sources): it walks the chain
// one burst EPISODE at a time — runs of state-0 real no-ops aggregate
// into one geometric draw, and the continuation of a burst into one
// truncated-geometric draw — so the cost is O(1) per burst episode (not
// per omission), exact at every delivery position including truncation at
// `cap` and exhaustion of the omission budget. Callers with w_omit > 0
// punctuate per omissive delivery anyway and only need the forced-real
// branch, which they implement inline.
struct BurstLeg {
  std::size_t deliveries = 0;  // consumed, <= cap (includes the fire)
  std::size_t omissions = 0;   // inserted among them (all global no-ops)
  bool fire = false;           // ended by a count-changing real delivery
};

inline BurstLeg sample_capped_burst_leg(double p, std::uint64_t w,
                                        std::uint64_t t, std::size_t max_burst,
                                        std::size_t& burst,
                                        std::size_t omission_budget,
                                        std::size_t cap, Rng& rng) {
  BurstLeg leg;
  const double wr = static_cast<double>(w) / static_cast<double>(t);
  while (leg.deliveries < cap) {
    const std::size_t room = cap - leg.deliveries;
    if (leg.omissions >= omission_budget || p <= 0.0) {
      // No further insertions ever: a pure real-delivery geometric tail.
      const std::size_t run = w == 0 ? room : sample_noop_run(w, t, rng, room);
      leg.deliveries += run;
      if (run > 0) burst = 0;
      if (run < room) {
        ++leg.deliveries;
        leg.fire = true;
        burst = 0;
      }
      return leg;
    }
    if (burst >= max_burst) {
      // Forced real delivery (no rate coin is flipped).
      ++leg.deliveries;
      burst = 0;
      if (rng.below(t) < w) {
        leg.fire = true;
        return leg;
      }
      continue;
    }
    // Insertions possible: each delivery is an omission w.p. p, else a
    // real one that changes counts w.p. wr. Aggregate the run of real
    // no-ops (every one of them resets the burst to 0, so the omission
    // probability is p throughout).
    const double sigma = p + (1.0 - p) * wr;
    const std::size_t run = sample_bernoulli_run(sigma, rng, room);
    leg.deliveries += run;
    if (run > 0) burst = 0;
    if (run >= room) return leg;  // cap reached mid-run
    if (!rng.chance(p / sigma)) {
      // The event is a real count-change.
      ++leg.deliveries;
      leg.fire = true;
      burst = 0;
      return leg;
    }
    // The event opens (or continues) a burst: the first omission plus its
    // geometric continuation, truncated by the burst cap, the omission
    // budget, and the delivery cap.
    const std::size_t limit =
        std::min({max_burst - burst, omission_budget - leg.omissions,
                  cap - leg.deliveries});
    const std::size_t k =
        1 + sample_bernoulli_run(1.0 - p, rng, limit - 1);
    leg.omissions += k;
    leg.deliveries += k;
    burst += k;
    if (k < limit) {
      // The burst ended because the rate coin came up "real": that
      // delivery is already determined real — only change vs no-op is
      // left to draw.
      ++leg.deliveries;
      burst = 0;
      if (rng.below(t) < w) {
        leg.fire = true;
        return leg;
      }
    }
    // k == limit: the loop head classifies what bound it (burst cap ->
    // forced real, budget -> real tail, delivery cap -> return).
  }
  return leg;
}

// The omission-aware count-space leap (Def. 1–2 adversaries), shared by
// BatchSystem and SimBatchSystem: cover at most `budget` interactions of
// the uniform scheduler, adding them to `d`, and return after the first
// count change (or when the budget runs out).
//
// Without an active omission process the run of no-ops before the next
// real count change is geometric with success W/T (W the real changing
// weight, T the pair total). With one, each delivery is an inserted
// omission with probability p = rate while the process is active (budget
// left, before the NO quiet horizon), at most max_burst in a row. Leaps
// never cross the quiet horizon, and split exactly into real and omissive
// draws:
//
//   * omissive deliveries are global no-ops and the burst cap can bind:
//     the within-burst Markov chain, one burst episode per draw
//     (sample_capped_burst_leg);
//   * omissive deliveries are global no-ops, the cap cannot bind and the
//     budget cannot run out mid-leap: the run to the next change is
//     geometric with success (1-p)·W/T, and the omissive draws inside it
//     are recovered by one binomial split (which never decides which rule
//     fires);
//   * a full burst forces the next delivery real, with no rate coin;
//   * otherwise the leap is punctuated by "events" (omissive deliveries
//     and real count changes): the run of real no-ops before one is
//     geometric with success p + (1-p)·W/T, the event is omissive with
//     probability p over that, and each omissive delivery is resolved by
//     the system itself. Each costs O(1), so Budget(o) adds O(o) work.
//
// `Sys` supplies the system-specific steps, resolved at compile time:
//   OmissionProcess* omission();   // null when no adversary is attached
//   std::size_t& steps();          // the system's interaction counter
//   RunStats& stats();
//   obs::Histogram* leap_len();    // leap-length histogram, or null
//   std::pair<std::uint64_t, std::uint64_t> real_weight();  // (W, T) now
//   bool omission_transparent();   // omissive deliveries change nothing
//   void fire_real(std::uint64_t w, Rng&, BatchDelta&);
//       // one real count-changing delivery, counted in d and steps()
//   bool omissive_delivery(std::uint64_t t, Rng&, BatchDelta&);
//       // one omissive delivery: true (counted) if it changed counts,
//       // false (uncounted) if it was a no-op
template <class Sys>
void advance_with_omissions(Sys& sys, std::size_t budget, Rng& rng,
                            BatchDelta& d) {
  std::size_t& steps = sys.steps();
  RunStats& stats = sys.stats();
  // `real` real and `omitted` omissive deliveries that changed nothing.
  const auto pass = [&](std::size_t real, std::size_t omitted) {
    stats.record_noops(real);
    stats.record_omissive_noops(omitted);
    d.noops += real + omitted;
    d.interactions += real + omitted;
    steps += real + omitted;
  };
  while (d.interactions < budget) {
    const std::size_t remaining = budget - d.interactions;
    const auto [w, t] = sys.real_weight();
    OmissionProcess* omit = sys.omission();

    if (omit == nullptr || !omit->active(steps)) {
      // No insertable omissions now or ever again (inactivity is
      // absorbing): the exact integer leap.
      if (w == 0) {
        pass(remaining, 0);
        return;
      }
      const std::size_t skipped = sample_noop_run(w, t, rng, remaining);
      PPFS_METRIC(sys.leap_len(), record(skipped));
      pass(skipped, 0);
      if (skipped < remaining) sys.fire_real(w, rng, d);
      return;
    }

    const double p = omit->rate();
    const auto note = [&](std::size_t omissions) {
      omit->note_omissions(omissions);
      d.omissions += omissions;
    };
    // Never leap across the NO quiet horizon: the omission probability
    // flips to zero there, which the next loop iteration picks up.
    std::size_t cap = remaining;
    if (omit->quiet_after() != std::numeric_limits<std::size_t>::max() &&
        omit->quiet_after() > steps)
      cap = std::min(cap, omit->quiet_after() - steps);
    const double wr = static_cast<double>(w) / static_cast<double>(t);
    const bool capped = omit->burst_cap_reachable();

    if (sys.omission_transparent() && capped) {
      std::size_t burst = omit->burst();
      const BurstLeg leg =
          sample_capped_burst_leg(p, w, t, omit->max_burst(), burst,
                                  omit->remaining_budget(), cap, rng);
      omit->set_burst(burst);
      note(leg.omissions);
      pass(leg.deliveries - (leg.fire ? 1 : 0) - leg.omissions,
           leg.omissions);
      if (leg.fire) {
        sys.fire_real(w, rng, d);
        return;
      }
      if (cap == remaining) return;  // budget exhausted
      continue;                      // crossed the quiet horizon
    }

    if (sys.omission_transparent() && omit->remaining_budget() > cap) {
      const double rho = (1.0 - p) * wr;  // per-delivery change probability
      const std::size_t run = sample_bernoulli_run(rho, rng, cap);
      PPFS_METRIC(sys.leap_len(), record(run));
      if (run > 0) {
        const double q_om = p / (1.0 - rho);  // P(omissive | no-op)
        const std::size_t om = sample_binomial(run, q_om, rng);
        note(om);
        pass(run - om, om);
      }
      if (run == cap) {
        if (cap == remaining) return;  // budget exhausted
        continue;                      // crossed the quiet horizon
      }
      sys.fire_real(w, rng, d);
      return;
    }

    if (capped && omit->burst() >= omit->max_burst()) {
      omit->set_burst(0);
      if (w > 0 && rng.below(t) < w) {
        sys.fire_real(w, rng, d);
        return;
      }
      pass(1, 0);
      continue;
    }

    // Event-punctuated leap (every real delivery resets the burst, so the
    // omission probability is p throughout the run).
    const double sigma = p + (1.0 - p) * wr;
    const std::size_t run = sample_bernoulli_run(sigma, rng, cap);
    PPFS_METRIC(sys.leap_len(), record(run));
    if (run > 0) {
      pass(run, 0);
      omit->set_burst(0);
    }
    if (run == cap) {
      if (cap == remaining) return;
      continue;
    }
    if (rng.chance(p / sigma)) {
      note(1);
      omit->set_burst(omit->burst() + 1);
      if (sys.omissive_delivery(t, rng, d)) return;
      pass(0, 1);
      continue;  // budget/horizon/burst state may have changed
    }
    sys.fire_real(w, rng, d);
    omit->set_burst(0);
    return;
  }
}

namespace detail {

inline double lchoose(double n, double k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

// Mode-centered two-sided inversion of Hypergeometric(N, K, m): one
// uniform, the mode pmf from lgamma, and the exact ratio recurrence
//   pmf(k+1)/pmf(k) = (K-k)(m-k) / ((k+1)(N-K-m+k+1))
// expanding outward until the cdf mass covers u. Tail fp error ~1e-12;
// exhaustion clamps to the support edge.
inline std::uint64_t hypergeometric_inversion(std::uint64_t N,
                                              std::uint64_t K,
                                              std::uint64_t m, Rng& rng) {
  const double dN = static_cast<double>(N);
  const double dK = static_cast<double>(K);
  const double dm = static_cast<double>(m);
  const std::uint64_t lo = K + m > N ? K + m - N : 0;
  const std::uint64_t hi = std::min(K, m);
  std::uint64_t mode =
      static_cast<std::uint64_t>((dm + 1.0) * (dK + 1.0) / (dN + 2.0));
  mode = std::min(std::max(mode, lo), hi);
  const double lp0 = lchoose(dK, static_cast<double>(mode)) +
                     lchoose(dN - dK, dm - static_cast<double>(mode)) -
                     lchoose(dN, dm);
  const double u = rng.uniform();
  double pl = std::exp(lp0);
  double pr = pl;
  double acc = pl;
  if (u < acc) return mode;
  std::uint64_t l = mode;
  std::uint64_t r = mode;
  while (l > lo || r < hi) {
    if (r < hi) {
      const double dr = static_cast<double>(r);
      pr *= (dK - dr) * (dm - dr) /
            ((dr + 1.0) * (dN - dK - dm + dr + 1.0));
      ++r;
      acc += pr;
      if (u < acc) return r;
    }
    if (l > lo) {
      const double dl = static_cast<double>(l);
      pl *= dl * (dN - dK - dm + dl) /
            ((dK - dl + 1.0) * (dm - dl + 1.0));
      --l;
      acc += pl;
      if (u < acc) return l;
    }
  }
  return hi;
}

}  // namespace detail

// Hypergeometric(pool, succ, m): successes among m items drawn without
// replacement from `pool` items of which `succ` are successes — the
// univariate link in the round engine's chained multivariate draws.
//
// The problem is first reduced by its two symmetries — drawing the
// complement (m -> pool - m, result = succ - k) and exchanging the roles
// of succ and m — until the drawn side is smallest; when that is <= 64
// the draw runs as exact integer without-replacement trials (so the
// small-n equivalence suites exercise a fully exact path), otherwise the
// lgamma inversion above.
inline std::uint64_t sample_hypergeometric(std::uint64_t pool,
                                           std::uint64_t succ, std::uint64_t m,
                                           Rng& rng) {
  if (succ == 0 || m == 0) return 0;
  if (succ >= pool) return m;
  if (m >= pool) return succ;
  std::uint64_t flip = 0;
  bool negate = false;
  if (m > pool - m) {
    flip = succ;
    negate = true;
    m = pool - m;
  }
  if (succ < m) {
    const std::uint64_t tmp = succ;
    succ = m;
    m = tmp;
  }
  std::uint64_t k;
  if (m <= 64) {
    std::uint64_t left = pool;
    std::uint64_t good = succ;
    k = 0;
    for (std::uint64_t i = 0; i < m; ++i) {
      if (rng.below(left) < good) {
        ++k;
        --good;
      }
      --left;
    }
  } else {
    k = detail::hypergeometric_inversion(pool, succ, m, rng);
  }
  return negate ? flip - k : k;
}

// Length of the collision-free prefix of a uniform interaction round:
// pair i+1 is collision-free iff it draws two of the U = n - 2i untouched
// agents, so P(L >= i) = n! / ((n-2i)! * (n(n-1))^i). Returns min(L, cap);
// truncation at `cap` (interaction budget or omission quiet horizon) is
// exact because scheduler pairs are i.i.d. — the discarded suffix is
// independent of the prefix, and the next round restarts fresh.
inline std::size_t sample_round_length(std::uint64_t n, Rng& rng,
                                       std::size_t cap) {
  if (n < 2 || cap == 0) return 0;
  // ppfs-lint: allow(weight-mul): n < 2^32 keeps the pair total in u64.
  const std::uint64_t t = n * (n - 1);
  const std::size_t max_len =
      std::min(cap, static_cast<std::size_t>(n / 2));
  if (n <= (1u << 16)) {
    // Sequential exact integer trials; the first pair never collides.
    std::size_t i = 1;
    while (i < max_len) {
      const std::uint64_t u = n - 2 * i;
      // ppfs-lint: allow(weight-mul): u <= n < 2^32, so u(u-1) fits u64.
      if (u < 2 || rng.below(t) >= u * (u - 1)) return i;
      ++i;
    }
    return max_len;
  }
  // One uniform inverted through the monotone survival function in log
  // space: L is the unique i with S(i+1) <= u < S(i).
  double u = rng.uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  const double lu = std::log(u);
  const double lg_n = std::lgamma(static_cast<double>(n) + 1.0);
  const double lt = std::log(static_cast<double>(t));
  const auto ls = [&](std::size_t i) {
    return lg_n - std::lgamma(static_cast<double>(n - 2 * i) + 1.0) -
           static_cast<double>(i) * lt;
  };
  if (ls(max_len) > lu) return max_len;
  std::size_t lo = 1;  // ls(1) = 0 > lu, so the invariant holds
  std::size_t hi = max_len;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (ls(mid) > lu ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace ppfs::leap
