#include "checks.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/trajectory.hpp"

namespace perfbench {

using ppfs::exp::ReplicaJob;
using ppfs::exp::ReplicaResult;
using ppfs::exp::Report;

Endpoints trajectory_endpoints(const std::string& blob) {
  ppfs::TrajectoryDecoder dec(blob);
  ppfs::TrajectoryFrame frame;
  Endpoints out;
  bool any = false;
  while (dec.next(frame)) {
    if (!any) out.first = frame.counts;
    out.last = frame.counts;
    any = true;
  }
  if (!any) throw std::runtime_error("replica recorded no trajectory frame");
  return out;
}

std::uint64_t population(const std::vector<std::uint64_t>& counts) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

int agreed_output(const std::vector<std::uint64_t>& counts,
                  const Outputs& outputs) {
  int agreed = -2;
  for (std::size_t q = 0; q < counts.size(); ++q) {
    if (counts[q] == 0) continue;
    const int o = q < outputs.size() ? outputs[q] : -1;
    if (o < 0 || (agreed != -2 && o != agreed)) return -1;
    agreed = o;
  }
  return agreed < 0 ? -1 : agreed;
}

std::string check_goal(Goal goal, const Outputs& outputs,
                       const std::vector<std::uint64_t>& initial,
                       const std::vector<std::uint64_t>& final, std::size_t n,
                       std::uint32_t leader_state) {
  if (population(initial) != n)
    return "initial population " + std::to_string(population(initial)) +
           " != n = " + std::to_string(n);
  if (population(final) != n)
    return "final population " + std::to_string(population(final)) +
           " != n = " + std::to_string(n);
  if (goal == Goal::OneLeader) {
    const std::uint64_t leaders =
        leader_state < final.size() ? final[leader_state] : 0;
    if (leaders != 1)
      return std::to_string(leaders) + " leaders at the end, want exactly 1";
    return {};
  }
  std::uint64_t ones = 0;
  std::uint64_t zeros = 0;
  for (std::size_t q = 0; q < initial.size(); ++q) {
    const int o = q < outputs.size() ? outputs[q] : -1;
    if (o == 1) ones += initial[q];
    if (o == 0) zeros += initial[q];
  }
  int want = 0;
  if (goal == Goal::Or) {
    want = ones > 0 ? 1 : 0;
  } else {
    if (ones == zeros) return "initial configuration has no majority";
    want = ones > zeros ? 1 : 0;
  }
  const int got = agreed_output(final, outputs);
  if (got != want)
    return std::string(goal == Goal::Or ? "OR" : "majority") + " of inputs is " +
           std::to_string(want) + " but the final configuration outputs " +
           std::to_string(got);
  return {};
}

std::string check_count_unit(const CountUnit& u, const CountUnit* reference,
                             std::size_t n, std::size_t steps,
                             std::size_t budget, std::size_t omission_bound) {
  if (u.covered != steps)
    return "advance() covered " + std::to_string(u.covered) + " of " +
           std::to_string(steps) + " interactions";
  if (u.fires + u.noops != u.covered)
    return "fires + no-ops = " + std::to_string(u.fires + u.noops) +
           " != covered " + std::to_string(u.covered);
  std::uint64_t pop = 0;
  for (const std::size_t c : u.counts) pop += c;
  if (pop != n)
    return "projected counts sum to " + std::to_string(pop) + ", not n = " +
           std::to_string(n);
  if (budget > omission_bound)
    return "omission budget " + std::to_string(budget) + " exceeds o = " +
           std::to_string(omission_bound);
  if (u.omissions > budget)
    return std::to_string(u.omissions) + " omissions exceed the budget " +
           std::to_string(budget);
  if (reference != nullptr &&
      (u.counts != reference->counts || u.fires != reference->fires ||
       u.omissions != reference->omissions))
    return "a repeated unit at the same seed gave different counts";
  return {};
}

std::string check_dense_replica(const ReplicaResult& r, const Outputs& outputs,
                                const std::vector<std::uint64_t>& initial,
                                std::size_t n, double rate) {
  if (!r.run.converged) return "replica did not converge";
  const Endpoints ends = trajectory_endpoints(r.traj);
  if (ends.first != initial)
    return "the replica's first frame is not the workload's initial configuration";
  if (std::string e = check_goal(Goal::Or, outputs, initial, ends.last, n);
      !e.empty())
    return e;
  const double steps = static_cast<double>(r.run.steps);
  if (steps <= 0) return "replica covered no interactions";
  const double share = static_cast<double>(r.run.omissions) / steps;
  const double sigma = std::sqrt(rate * (1.0 - rate) / steps);
  if (std::abs(share - rate) > 5.0 * sigma) {
    std::ostringstream os;
    os << "omission share " << share << " is more than 5 sigma (" << sigma
       << ") from the adversary rate " << rate;
    return os.str();
  }
  return {};
}

std::string check_paper_report(const Report& report,
                               const std::vector<PaperPointRule>& rules) {
  const auto& rows = report.rows();
  if (rows.size() != rules.size())
    return "report has " + std::to_string(rows.size()) + " rows, want " +
           std::to_string(rules.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const std::string where = " (" + row.spec.to_string() + ")";
    if (row.replicas.size() != row.spec.trials)
      return "row holds " + std::to_string(row.replicas.size()) +
             " replicas, want " + std::to_string(row.spec.trials) + where;
    std::uint64_t steps = 0;
    std::uint64_t omissions = 0;
    std::uint64_t fires = 0;
    std::size_t failed = 0;
    for (const ReplicaResult& r : row.replicas) {
      if (r.failed()) {
        ++failed;
        continue;
      }
      if (rules[i].verified) {
        const auto ok = r.extras.find("matching_ok");
        if (ok == r.extras.end() || ok->second != 1.0)
          return "replica fails Definition-3 matching" + where;
      }
      if (r.run.omissions > rules[i].omission_budget)
        return std::to_string(r.run.omissions) + " omissions exceed budget " +
               std::to_string(rules[i].omission_budget) + where;
      steps += r.run.steps;
      omissions += r.run.omissions;
      fires += r.fires;
    }
    const auto& a = row.aggregate;
    if (a.trials() != row.replicas.size() || a.failed() != failed ||
        a.interactions().sum() != static_cast<double>(steps) ||
        a.omissions() != omissions || a.fires() != fires)
      return "aggregate totals differ from the sums over the row's replicas" +
             where;
  }
  return {};
}

namespace {

[[nodiscard]] std::string result_bytes(const ReplicaResult& r) {
  ppfs::bin::Writer w;
  ppfs::exp::save_replica_result(w, r);
  return w.data();
}

[[nodiscard]] std::string report_json(const Report& r) {
  std::ostringstream os;
  r.write_json(os);
  return os.str();
}

}  // namespace

std::string check_checkpoint(const ppfs::exp::SweepCheckpoint& ck,
                             const ppfs::exp::SweepRun& run,
                             const std::vector<ReplicaJob>& all_jobs) {
  if (ck.has_inflight) return "final checkpoint still holds an in-flight replica";
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> index;
  for (std::size_t i = 0; i < all_jobs.size(); ++i)
    index[{all_jobs[i].point, all_jobs[i].trial}] = i;
  std::map<std::size_t, const ReplicaResult*> stored;
  for (const auto& [job, result] : ck.completed) {
    if (!stored.emplace(job, &result).second)
      return "checkpoint lists job " + std::to_string(job) + " twice";
  }
  if (stored.size() != run.owned.size())
    return "checkpoint holds " + std::to_string(stored.size()) +
           " replicas, the shard completed " + std::to_string(run.owned.size());
  for (const ReplicaJob& j : run.owned) {
    const auto it = stored.find(index.at({j.point, j.trial}));
    if (it == stored.end())
      return "checkpoint lacks completed job (" + std::to_string(j.point) +
             ", " + std::to_string(j.trial) + ")";
    if (result_bytes(*it->second) != result_bytes(run.results[j.point][j.trial]))
      return "checkpoint result of job (" + std::to_string(j.point) + ", " +
             std::to_string(j.trial) + ") differs from the shard's";
  }
  return {};
}

std::string check_merge(const Report& merged, const Report& reference) {
  const auto& a = merged.rows();
  const auto& b = reference.rows();
  bool same = a.size() == b.size() &&
              merged.fingerprint() == reference.fingerprint() &&
              report_json(merged) == report_json(reference);
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].replicas.size() == b[i].replicas.size();
    for (std::size_t t = 0; same && t < a[i].replicas.size(); ++t)
      same = result_bytes(a[i].replicas[t]) == result_bytes(b[i].replicas[t]);
  }
  if (!same) return "k-shard merge differs from the single-process fold";
  return {};
}

// --- self-test ----------------------------------------------------------------

namespace {

[[nodiscard]] std::string encode_frames(
    const std::vector<std::vector<std::size_t>>& frames) {
  ppfs::TrajectoryEncoder enc;
  for (std::size_t i = 0; i < frames.size(); ++i) enc.append(i * 100, frames[i]);
  return enc.data();
}

}  // namespace

std::size_t run_selftest() {
  std::size_t exercised = 0;
  const auto must_reject = [&](const std::string& what, const std::string& error) {
    ++exercised;
    if (error.empty())
      throw std::runtime_error("selftest: check accepted " + what);
  };
  const auto must_accept = [&](const std::string& what, const std::string& error) {
    if (!error.empty())
      throw std::runtime_error("selftest: check rejected good " + what + ": " +
                               error);
  };

  // skno-count: a population that no longer sums to n, a lost interaction,
  // an omission over budget, a repeated unit that drifted.
  CountUnit good{1000, 400, 600, 3, {60, 40}};
  must_accept("count unit", check_count_unit(good, nullptr, 100, 1000, 8, 8));
  CountUnit bad = good;
  bad.counts = {60, 39};
  must_reject("counts summing to n - 1", check_count_unit(bad, nullptr, 100, 1000, 8, 8));
  bad = good;
  bad.covered = 999;
  must_reject("a short advance() sum", check_count_unit(bad, nullptr, 100, 1000, 8, 8));
  bad = good;
  bad.noops = 599;
  must_reject("fires + no-ops off by one", check_count_unit(bad, nullptr, 100, 1000, 8, 8));
  bad = good;
  bad.omissions = 9;
  must_reject("omissions over budget", check_count_unit(bad, nullptr, 100, 1000, 8, 8));
  must_reject("a budget above o", check_count_unit(good, nullptr, 100, 1000, 9, 8));
  bad = good;
  bad.counts = {59, 41};
  must_reject("a drifted repeat", check_count_unit(bad, &good, 100, 1000, 8, 8));

  // dense-omission: beacon-or outputs (state >> 1), n = 100.
  const Outputs beacon{0, 0, 1, 1};
  const std::vector<std::uint64_t> lit{99, 0, 1, 0};
  ReplicaResult dense;
  dense.run = {1'000'000, true, 100'000};
  dense.traj = encode_frames({{99, 0, 1, 0}, {0, 0, 50, 50}});
  must_accept("dense replica", check_dense_replica(dense, beacon, lit, 100, 0.1));
  ReplicaResult wrong = dense;
  wrong.traj = encode_frames({{99, 0, 1, 0}, {50, 50, 0, 0}});
  must_reject("a flipped consensus", check_dense_replica(wrong, beacon, lit, 100, 0.1));
  wrong = dense;
  wrong.traj = encode_frames({{100, 0, 0, 0}, {0, 0, 50, 50}});
  must_reject("a first frame that is not the initial configuration",
              check_dense_replica(wrong, beacon, lit, 100, 0.1));
  must_reject("consensus 1 when no input is 1",
              check_dense_replica(wrong, beacon, {100, 0, 0, 0}, 100, 0.1));
  wrong = dense;
  wrong.run.omissions = 120'000;
  must_reject("an omission count off the uo rate",
              check_dense_replica(wrong, beacon, lit, 100, 0.1));
  wrong = dense;
  wrong.traj = encode_frames({{99, 0, 1, 0}, {0, 0, 50, 49}});
  must_reject("a population that no longer sums to n",
              check_dense_replica(wrong, beacon, lit, 100, 0.1));
  wrong = dense;
  wrong.run.converged = false;
  must_reject("an unconverged replica",
              check_dense_replica(wrong, beacon, lit, 100, 0.1));

  // Majority and leader goals (exact-majority outputs X=1, Y=0, x=1, y=0).
  const Outputs majority{1, 0, 1, 0};
  must_accept("majority", check_goal(Goal::Majority, majority, {6, 4, 0, 0},
                                     {2, 0, 8, 0}, 10));
  must_reject("a minority verdict", check_goal(Goal::Majority, majority,
                                               {6, 4, 0, 0}, {0, 2, 0, 8}, 10));
  must_reject("two leaders", check_goal(Goal::OneLeader, {1, 0}, {10, 0}, {2, 8}, 10, 0));

  // paper-sweep: a real two-replica native SID grid, then corrupted.
  ppfs::exp::RunnerOptions ro;
  ro.threads = 1;
  const Report paper = ppfs::exp::ReplicaRunner(ro).run_grid(ppfs::exp::parse_grid(
      "exact-majority@n=8:model=IO:sim=sid:engine=native:verify=1:trials=2"));
  const std::vector<PaperPointRule> rules{{0, true}};
  must_accept("paper report", check_paper_report(paper, rules));
  Report broken = paper;
  broken.rows_mutable()[0].replicas[1].extras["matching_ok"] = 0.0;
  must_reject("a failed Definition-3 matching", check_paper_report(broken, rules));
  broken = paper;
  broken.rows_mutable()[0].replicas.pop_back();
  broken.rows_mutable()[0].spec.trials = 1;
  must_reject("a replica missing from the aggregate", check_paper_report(broken, rules));
  broken = paper;
  broken.rows_mutable()[0].replicas[0].error = "thrown";
  must_reject("a failed replica the aggregate does not count",
              check_paper_report(broken, rules));
  broken = paper;
  broken.rows_mutable()[0].replicas[0].run.omissions = 1;
  must_reject("omissions without an adversary", check_paper_report(broken, rules));

  // sweep-service: a two-shard sweep, one replica dropped from a partial
  // and from a checkpoint.
  ppfs::exp::SweepProvenance prov;
  prov.grid = "or@n=16:engine=batch";
  prov.trials = 4;
  prov.traj_every = 1;
  const auto points = prov.expand_points();
  const auto jobs = ppfs::exp::sweep_jobs(points);
  ppfs::exp::SweepServiceOptions so;
  so.threads = 1;
  const auto whole = ppfs::exp::run_sweep_shard(prov, so);
  const Report reference = ppfs::exp::fold_report(whole.points, whole.results);
  std::vector<std::string> partials;
  std::vector<ppfs::exp::SweepRun> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    auto p = prov;
    p.shard_index = i;
    p.shard_count = 2;
    shards.push_back(ppfs::exp::run_sweep_shard(p, so));
    partials.push_back(ppfs::exp::encode_partial(p, shards[i].points,
                                                 shards[i].results, shards[i].owned));
  }
  must_accept("merge", check_merge(ppfs::exp::merge_partials(partials), reference));
  {
    auto p = prov;
    p.shard_index = 1;
    p.shard_count = 2;
    auto owned = shards[1].owned;
    owned.pop_back();
    auto dropped = partials;
    dropped[1] = ppfs::exp::encode_partial(p, shards[1].points, shards[1].results, owned);
    std::string error;
    try {
      error = check_merge(ppfs::exp::merge_partials(dropped), reference);
    } catch (const std::exception& e) {
      error = e.what();
    }
    must_reject("a replica dropped from a partial", error);
  }
  Report short_merge = ppfs::exp::merge_partials(partials);
  short_merge.rows_mutable()[0].replicas[2].run.steps += 1;
  must_reject("a merged replica that differs", check_merge(short_merge, reference));

  ppfs::exp::SweepCheckpoint ck;
  ck.prov = prov;
  ck.prov.shard_index = 0;
  ck.prov.shard_count = 2;
  for (const auto& j : shards[0].owned) {
    std::size_t index = 0;
    while (jobs[index].point != j.point || jobs[index].trial != j.trial) ++index;
    ck.completed.emplace_back(index, shards[0].results[j.point][j.trial]);
  }
  must_accept("checkpoint", check_checkpoint(ck, shards[0], jobs));
  auto ck_dropped = ck;
  ck_dropped.completed.pop_back();
  must_reject("a replica dropped from a checkpoint",
              check_checkpoint(ck_dropped, shards[0], jobs));
  auto ck_changed = ck;
  ck_changed.completed.back().second.run.steps += 1;
  must_reject("a checkpointed replica that differs",
              check_checkpoint(ck_changed, shards[0], jobs));

  // Goals of the sweep's own replicas: OR over real trajectories.
  const Outputs or_outputs{0, 1};
  for (const auto& j : whole.owned) {
    const Endpoints e = trajectory_endpoints(whole.results[j.point][j.trial].traj);
    must_accept("or replica", check_goal(Goal::Or, or_outputs, e.first, e.last, 16));
  }
  return exercised;
}

}  // namespace perfbench
