// Output checks of the benchmark's workloads.
//
// Every check compares the program's output with a value the benchmark
// computes apart from the program (a count it summed itself, the OR or the
// majority of the initial inputs, the adversary's nominal rate) or with a
// property the method must have (conservation of n, Definition-3 matching,
// byte-identical merges). None compares against a stored copy of earlier
// output. Each returns an empty string when the output passes, else the
// reason it was rejected. `run_selftest` feeds each check a deliberately
// wrong result and fails if any is accepted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/report.hpp"
#include "exp/sweep_service.hpp"

namespace perfbench {

// --- shared helpers ---------------------------------------------------------

// First and last frame of a replica's trajectory (ScenarioSpec::traj_every).
struct Endpoints {
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> last;
};
// Throws std::runtime_error on an empty or undecodable blob.
[[nodiscard]] Endpoints trajectory_endpoints(const std::string& blob);

// Per-state output of a protocol (Protocol::output / OneWayProtocol::output).
using Outputs = std::vector<int>;

// Output of the configuration if every agent agrees, else -1 (states with
// output -1 break agreement).
[[nodiscard]] int agreed_output(const std::vector<std::uint64_t>& counts,
                                const Outputs& outputs);
[[nodiscard]] std::uint64_t population(const std::vector<std::uint64_t>& counts);

// What a replica must reach, computed from its initial configuration.
enum class Goal { Or, Majority, OneLeader };

// `counts` from the first frame, `final` from the last: n conserved and the
// goal met. For OneLeader, `leader_state` names the leader state.
[[nodiscard]] std::string check_goal(Goal goal, const Outputs& outputs,
                                     const std::vector<std::uint64_t>& initial,
                                     const std::vector<std::uint64_t>& final,
                                     std::size_t n, std::uint32_t leader_state = 0);

// --- skno-count ------------------------------------------------------------

struct CountUnit {
  std::size_t covered = 0;  // summed by the benchmark from advance() returns
  std::uint64_t fires = 0;
  std::uint64_t noops = 0;
  std::size_t omissions = 0;
  std::vector<std::size_t> counts;  // projected (simulated) counts
};

// `reference` is the first unit of the run (null for the first itself).
[[nodiscard]] std::string check_count_unit(const CountUnit& u,
                                           const CountUnit* reference,
                                           std::size_t n, std::size_t steps,
                                           std::size_t budget,
                                           std::size_t omission_bound);

// --- dense-omission ---------------------------------------------------------

// `initial` is the benchmark's own count of the workload's initial
// configuration. The replica's first frame equals it, its last frame
// outputs the OR of it, n is conserved, and the omission share of the
// interactions lies within 5 sigma of `rate`. A failed replica is not
// checked here; the caller counts it as failed.
[[nodiscard]] std::string check_dense_replica(
    const ppfs::exp::ReplicaResult& r, const Outputs& outputs,
    const std::vector<std::uint64_t>& initial, std::size_t n, double rate);

// --- paper-sweep -------------------------------------------------------------

// Per point: the omission budget (0 = no adversary) and whether native
// matching verification ran.
struct PaperPointRule {
  std::size_t omission_budget = 0;
  bool verified = false;
};
// Verified replicas pass Definition-3 matching, omissions stay within
// budget, and each row's aggregate totals equal the sums over its
// replicas. Failed replicas are skipped, but each row's aggregate must
// count exactly them as failed.
[[nodiscard]] std::string check_paper_report(
    const ppfs::exp::Report& report, const std::vector<PaperPointRule>& rules);

// --- sweep-service -----------------------------------------------------------

// The decoded final checkpoint of a shard holds exactly the shard's owned
// jobs, each with the result the shard returned.
[[nodiscard]] std::string check_checkpoint(
    const ppfs::exp::SweepCheckpoint& ck, const ppfs::exp::SweepRun& run,
    const std::vector<ppfs::exp::ReplicaJob>& all_jobs);

// The k-shard merge renders byte-identically to the single-process fold.
[[nodiscard]] std::string check_merge(const ppfs::exp::Report& merged,
                                      const ppfs::exp::Report& reference);

// Deliberately wrong inputs for every check above; returns the number of
// checks exercised, throws std::runtime_error naming any wrong input that
// was accepted.
std::size_t run_selftest();

}  // namespace perfbench
