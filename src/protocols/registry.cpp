#include "protocols/registry.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/population.hpp"
#include "protocols/counting.hpp"
#include "protocols/leader.hpp"
#include "protocols/logic.hpp"
#include "protocols/majority.hpp"
#include "protocols/oneway.hpp"
#include "protocols/pairing.hpp"
#include "protocols/parity.hpp"

namespace ppfs {

namespace {

// Initial configuration from ordered (state, count) groups: a per-agent
// vector below kPerAgentLimit (groups concatenated in order — layouts
// stay byte-identical to the historical ones), a counts vector above it
// (the n = 10^9 path; only the count-space engines can run it).
template <class W>
void set_initial(W& w,
                 const std::vector<std::pair<State, std::size_t>>& groups) {
  std::size_t n = 0;
  std::size_t top = 0;
  for (const auto& [q, k] : groups) {
    n += k;
    top = std::max<std::size_t>(top, q);
  }
  if (n <= kPerAgentLimit) {
    w.initial = make_initial(groups);
    return;
  }
  w.initial_counts.assign(top + 1, 0);
  for (const auto& [q, k] : groups) w.initial_counts[q] += k;
}

Workload make_or_workload(std::string name, std::size_t n) {
  // One agent holds a 1; OR must spread to everyone.
  Workload w{std::move(name), make_or_protocol(), {}, 1, nullptr};
  set_initial(w, {{1, 1}, {0, n - 1}});
  return w;
}

Workload make_and_workload(std::string name, std::size_t n) {
  // One agent holds a 0; AND must converge to 0.
  Workload w{std::move(name), make_and_protocol(), {}, 0, nullptr};
  set_initial(w, {{0, 1}, {1, n - 1}});
  return w;
}

Workload make_approx_majority_workload(std::string name, std::size_t n) {
  auto p = make_approximate_majority();
  const auto st = approx_majority_states();
  // 2/3 of the agents prefer x. The protocol guarantees the *majority*
  // opinion only w.h.p. for large margins, so the stable criterion — one
  // opinion extinct (consensus) — is what the workload checks.
  const std::size_t nx = std::max<std::size_t>(2 * n / 3, 1);
  auto conv = [st](const std::vector<std::size_t>& counts) {
    return counts[st.x] == 0 || counts[st.y] == 0;
  };
  Workload w{std::move(name), p, {}, -1, std::move(conv)};
  set_initial(w, {{st.x, nx}, {st.y, n - nx}});
  return w;
}

Workload make_exact_majority_workload(std::string name, std::size_t n) {
  auto p = make_exact_majority();
  const auto st = exact_majority_states();
  std::size_t nx = n / 2 + 1;  // strict majority for opinion 1
  Workload w{std::move(name), p, {}, 1, nullptr};
  set_initial(w, {{st.big_x, nx}, {st.big_y, n - nx}});
  return w;
}

Workload make_exact_majority_gap_workload(std::string name, std::size_t n) {
  auto p = make_exact_majority();
  const auto st = exact_majority_states();
  // Margin Theta(n): the simulator-at-scale instance of the same protocol.
  // The margin-2 workload above needs Theta(n^2) *simulated* interactions
  // to resolve the last cancellation, and no simulator can leap simulated
  // no-ops (the token/locking machinery runs regardless of whether delta
  // changes anything), so the count-space simulator demonstrations at
  // n = 10^6 use this large-margin initial configuration.
  const std::size_t nx = n / 2 + std::max<std::size_t>(1, n / 8);
  Workload w{std::move(name), p, {}, 1, nullptr};
  set_initial(w, {{st.big_x, nx}, {st.big_y, n - nx}});
  return w;
}

Workload make_leader_workload(std::string name, std::size_t n) {
  auto p = make_leader_election();
  const auto st = leader_states();
  auto conv = [st](const std::vector<std::size_t>& counts) {
    return counts[st.leader] == 1;
  };
  Workload w{std::move(name), p, {}, -1, std::move(conv)};
  set_initial(w, {{st.leader, n}});
  return w;
}

template <std::size_t k, bool above>
Workload make_threshold_workload(std::string name, std::size_t n) {
  auto p = make_threshold_counting(k);
  // `above`: k ones present (predicate true); else k-1 ones (false).
  const std::size_t ones = above ? k : k - 1;
  if (ones > n) throw std::invalid_argument("threshold workload: ones > n");
  Workload w{std::move(name), p, {}, above ? 1 : 0, nullptr};
  set_initial(w, {{1, ones}, {0, n - ones}});
  return w;
}

template <std::size_t m>
Workload make_mod_workload(std::string name, std::size_t n) {
  const std::size_t ones = std::max<std::size_t>(1, n / 2);
  auto p = make_mod_counting(m, ones % m);
  Workload w{std::move(name), p, {}, 1, nullptr};
  set_initial(w, {{1, ones}, {0, n - ones}});
  return w;
}

Workload make_pairing_workload(std::string name, std::size_t n) {
  auto p = make_pairing_protocol();
  const auto st = pairing_states();
  const std::size_t producers = n / 2;
  const std::size_t consumers = n - producers;
  const std::size_t expect_cs = std::min(consumers, producers);
  auto conv = [st, expect_cs](const std::vector<std::size_t>& counts) {
    return counts[st.critical] == expect_cs;
  };
  Workload w{std::move(name), p, {}, -1, std::move(conv)};
  set_initial(w, {{st.consumer, consumers}, {st.producer, producers}});
  return w;
}

OneWayWorkload make_io_or_workload(std::string name, std::size_t n) {
  OneWayWorkload w{std::move(name), make_io_or(), {}, true, 1, nullptr};
  set_initial(w, {{1, 1}, {0, n - 1}});
  return w;
}

OneWayWorkload make_io_max_workload(std::string name, std::size_t n) {
  OneWayWorkload w{std::move(name), make_io_max(8), {}, true, 7, nullptr};
  if (n <= kPerAgentLimit) {
    std::vector<State> init(n, 0);
    for (std::size_t i = 0; i < n; ++i) init[i] = static_cast<State>(i % 7);
    init[0] = 7;  // unique maximum to spread
    w.initial = std::move(init);
  } else {
    // Counts form of the same i % 7 spread with agent 0 lifted to 7.
    w.initial_counts.assign(8, 0);
    for (std::size_t q = 0; q < 7; ++q)
      w.initial_counts[q] = n / 7 + (q < n % 7 ? 1 : 0);
    --w.initial_counts[0];
    w.initial_counts[7] = 1;
  }
  return w;
}

OneWayWorkload make_io_leader_workload(std::string name, std::size_t n) {
  auto conv = [](const std::vector<std::size_t>& counts) {
    return counts[0] == 1;  // exactly one leader
  };
  OneWayWorkload w{std::move(name), make_io_leader(), {}, true, -1,
                   std::move(conv)};
  set_initial(w, {{0, n}});
  return w;
}

OneWayWorkload make_io_majority_workload(std::string name, std::size_t n) {
  // 2/3 majority for x; converged once one opinion is extinct. The
  // workload stands in for exact majority on one-way models (see
  // make_io_cancellation_majority).
  const auto st = io_majority_states();
  const std::size_t nx = std::max<std::size_t>(2 * n / 3, 1);
  auto conv = [st](const std::vector<std::size_t>& counts) {
    return counts[st.x] == 0 || counts[st.y] == 0;
  };
  OneWayWorkload w{std::move(name), make_io_cancellation_majority(), {}, true,
                   -1, std::move(conv)};
  set_initial(w, {{st.x, nx}, {st.y, n - nx}});
  return w;
}

OneWayWorkload make_beacon_or_workload(std::string name, std::size_t n) {
  // IT-only: non-identity g (beacon phase), OR over the bit halves.
  auto conv = [](const std::vector<std::size_t>& counts) {
    return counts[0] == 0 && counts[1] == 0;  // every bit is 1
  };
  OneWayWorkload w{std::move(name), make_it_or_with_beacon(), {}, false, -1,
                   std::move(conv)};
  set_initial(w, {{2, 1}, {0, n - 1}});
  return w;
}

// The suites as (name stem, factory) tables, in resolution order. A
// workload's name is its stem plus "(n=...)"; lookups match a prefix of
// that name and build only the entry they return.
template <class W>
struct Entry {
  const char* stem;
  W (*make)(std::string name, std::size_t n);
};

const Entry<Workload> kStandard[] = {
    {"or", make_or_workload},
    {"and", make_and_workload},
    {"approx-majority", make_approx_majority_workload},
    {"exact-majority", make_exact_majority_workload},
    {"exact-majority-gap", make_exact_majority_gap_workload},
    {"leader", make_leader_workload},
    {"threshold3-true", make_threshold_workload<3, true>},
    {"threshold3-false", make_threshold_workload<3, false>},
    {"mod3", make_mod_workload<3>},
    {"pairing", make_pairing_workload},
};

const Entry<OneWayWorkload> kOneWay[] = {
    {"or", make_io_or_workload},
    {"max", make_io_max_workload},
    {"leader", make_io_leader_workload},
    {"exact-majority-1way", make_io_majority_workload},
    {"beacon-or", make_beacon_or_workload},
};

[[nodiscard]] std::string sized_name(const char* stem, std::size_t n) {
  return std::string(stem) + "(n=" + std::to_string(n) + ")";
}

template <class W, std::size_t K>
[[nodiscard]] std::vector<W> build_all(const Entry<W> (&table)[K],
                                       std::size_t n) {
  std::vector<W> out;
  out.reserve(K);
  for (const Entry<W>& e : table) out.push_back(e.make(sized_name(e.stem, n), n));
  return out;
}

// The first entry whose sized name starts with `name`, built; nullopt if
// none matches.
template <class W, std::size_t K>
[[nodiscard]] std::optional<W> build_first(const Entry<W> (&table)[K],
                                           const std::string& name,
                                           std::size_t n) {
  for (const Entry<W>& e : table) {
    std::string sized = sized_name(e.stem, n);
    if (sized.rfind(name, 0) == 0) return e.make(std::move(sized), n);
  }
  return std::nullopt;
}

}  // namespace

std::vector<Workload> standard_workloads(std::size_t n) {
  if (n < 4) throw std::invalid_argument("standard_workloads: n >= 4 required");
  return build_all(kStandard, n);
}

std::vector<Workload> core_workloads(std::size_t n) {
  if (n < 4) throw std::invalid_argument("core_workloads: n >= 4 required");
  std::vector<Workload> out;
  for (const char* name : {"or(", "exact-majority(", "leader(", "pairing("})
    out.push_back(*build_first(kStandard, name, n));
  return out;
}

std::vector<OneWayWorkload> one_way_workloads(std::size_t n) {
  if (n < 4) throw std::invalid_argument("one_way_workloads: n >= 4 required");
  return build_all(kOneWay, n);
}

Workload find_workload(const std::string& name, std::size_t n) {
  if (n < 4) throw std::invalid_argument("standard_workloads: n >= 4 required");
  if (std::optional<Workload> w = build_first(kStandard, name, n))
    return std::move(*w);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

OneWayWorkload find_one_way_workload(const std::string& name, std::size_t n,
                                     Model model) {
  if (n < 4) throw std::invalid_argument("one_way_workloads: n >= 4 required");
  // Prefix match; "exact-majority" resolves to "exact-majority-1way".
  std::optional<OneWayWorkload> w = build_first(kOneWay, name, n);
  if (!w)
    throw std::invalid_argument("unknown one-way workload '" + name +
                                "' (try: or, max, leader, exact-majority, "
                                "beacon-or)");
  if (model == Model::IO && !w->io)
    throw std::invalid_argument("workload '" + w->name +
                                "' needs g != id, IO forbids it");
  return std::move(*w);
}

}  // namespace ppfs
