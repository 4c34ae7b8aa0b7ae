#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

#include "checks.hpp"
#include "engine/batch/dispatch.hpp"
#include "exp/replica_runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_service.hpp"
#include "protocols/leader.hpp"
#include "protocols/registry.hpp"
#include "sched/adversary.hpp"
#include "sched/omission_process.hpp"
#include "sched/scheduler.hpp"
#include "sim/sim_rules.hpp"
#include "sim/simulator.hpp"
#include "verify/matching.hpp"

namespace perfbench {

namespace {

using ppfs::exp::ReplicaResult;
using ppfs::exp::Report;
using ppfs::exp::ScenarioSpec;
using Scope = Tracer::Scope;

[[nodiscard]] double since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

void require(const std::string& error) {
  if (!error.empty()) throw CheckFailed(error);
}

template <class P>
[[nodiscard]] Outputs outputs_of(const P& p) {
  Outputs out(p.num_states());
  for (std::size_t q = 0; q < out.size(); ++q)
    out[q] = p.output(static_cast<ppfs::State>(q));
  return out;
}

template <class C>
[[nodiscard]] std::vector<std::uint64_t> widen(const C& counts) {
  return std::vector<std::uint64_t>(counts.begin(), counts.end());
}

[[nodiscard]] std::vector<std::uint64_t> count_states(
    const std::vector<ppfs::State>& agents, std::size_t states) {
  std::vector<std::uint64_t> counts(states, 0);
  for (const ppfs::State s : agents) ++counts.at(s);
  return counts;
}

[[nodiscard]] std::uint64_t failed_in(const Report& report) {
  std::uint64_t failed = 0;
  for (const auto& row : report.rows()) failed += row.aggregate.failed();
  return failed;
}

// A sweep's set-up: every point's workload resolved and its engine or
// simulator built, each stopped after one interaction.
void first_interactions(const std::vector<ScenarioSpec>& points) {
  for (ScenarioSpec one : points) {
    one.fixed_steps = 1;
    one.traj_every = 0;
    (void)ppfs::exp::run_replica(one, 0);
  }
}

// Registry-derived layer values: counts per 10^6 interactions, cache hit
// ratios, histogram means and sampled-timer costs per event.
void registry_layers(const ppfs::obs::MetricRegistry& reg, double interactions,
                     LayerValues& v) {
  const double per_mi = 1e6 / interactions;
  const auto counter = [&](const char* name) -> std::optional<double> {
    const auto it = reg.counters().find(name);
    if (it == reg.counters().end()) return std::nullopt;
    return static_cast<double>(it->second.value());
  };
  const auto per_event_ns = [&](const char* timer, const char* layer) {
    const auto it = reg.timers().find(timer);
    if (it == reg.timers().end() || it->second.events() == 0) return;
    v[layer] = it->second.estimated_seconds() * 1e9 /
               static_cast<double>(it->second.events());
  };
  const auto hit_ratio = [&](const std::string& cache, const char* layer) {
    const auto hits = counter((cache + ".hits").c_str());
    const auto misses = counter((cache + ".misses").c_str());
    if (hits && misses && *hits + *misses > 0)
      v[layer] = *hits / (*hits + *misses);
  };
  const auto mean = [&](const char* hist, const char* layer) {
    const auto it = reg.histograms().find(hist);
    if (it != reg.histograms().end() && it->second.count() > 0)
      v[layer] = it->second.mean();
  };
  const std::pair<const char*, const char*> rates[] = {
      {"universe.intern_new", "core.universe.intern_new_per_mi"},
      {"universe.intern_hit", "core.universe.intern_hit_per_mi"},
      {"universe.intern_patched", "core.universe.intern_patched_per_mi"},
      {"universe.released", "core.universe.released_per_mi"},
      {"engine.rounds", "engine.round.rounds_per_mi"},
      {"engine.weight_refreshes", "engine.batch.weight_refreshes_per_mi"}};
  for (const auto& [name, layer] : rates)
    if (const auto c = counter(name)) v[layer] = *c * per_mi;
  per_event_ns("time.intern", "core.universe.intern_ns");
  per_event_ns("time.gc", "core.universe.gc_ns");
  per_event_ns("time.outcome_miss", "core.cache.miss_ns");
  per_event_ns("time.fire", "engine.sim_batch.fire_ns");
  hit_ratio("cache.g", "core.cache.g_hit_ratio");
  hit_ratio("cache.recv", "core.cache.recv_hit_ratio");
  hit_ratio("cache.outcome", "core.cache.outcome_hit_ratio");
  mean("index.probe_depth", "engine.sim_batch.index_probe_depth_mean");
  mean("engine.leap_len", "engine.batch.leap_len_mean");
  mean("engine.round_len", "engine.round.round_len_mean");
  mean("adv.burst_len", "sched.burst_len_mean");
  const auto bursts = reg.histograms().find("adv.burst_len");
  if (bursts != reg.histograms().end())
    v["sched.bursts_per_mi"] = static_cast<double>(bursts->second.count()) * per_mi;
}

// --- skno-count --------------------------------------------------------------
// SKnO (o = 8) over exact-majority-gap at n = 10^6 in count space under a
// budget:8 adversary, driven for a fixed interaction count per unit through
// make_sim_engine + Engine::advance, in fixed chunks so the traced unit
// (which samples the universe between chunks) follows the same trajectory.
class SknoCount final : public Workload {
 public:
  static constexpr std::size_t kN = 1'000'000;
  static constexpr std::size_t kSteps = 1'250'000;
  static constexpr std::size_t kChunks = 50;

  explicit SknoCount(std::uint64_t seed) {
    spec_.workload = "exact-majority-gap";
    spec_.n = kN;
    spec_.engine = "batch";
    spec_.model = ppfs::Model::I3;
    spec_.adversary = "budget:8";
    spec_.sim = "skno:o=8";
    spec_.seed = seed;
    spec_.fixed_steps = kSteps;
  }

  void setup() override {
    ScenarioSpec one = spec_;
    one.fixed_steps = 1;
    (void)ppfs::exp::run_replica(one, 0);
  }

  UnitTiming unit() override { return run(nullptr, nullptr); }

  TracedTiming traced_unit(Tracer& t, LayerValues& v) override {
    const UnitTiming plain = run(nullptr, nullptr);
    const UnitTiming traced = run(&t, &v);
    return {traced.seconds, plain.seconds, 2, 0};
  }

 private:
  UnitTiming run(Tracer* t, LayerValues* v) {
    const std::size_t from = t != nullptr ? t->size() : 0;
    const ppfs::SimSpec sim = ppfs::parse_sim_spec(spec_.sim);
    const ppfs::AdversaryParams adv = ppfs::parse_adversary_spec(spec_.adversary);
    std::unique_ptr<ppfs::Engine> engine;
    CountUnit out;
    std::size_t live_peak = 0;
    const std::int64_t t0 = now_ns();
    {
      Scope root(t, "bench.unit");
      ppfs::Workload w;
      {
        Scope s(t, "protocols.workload_build");
        w = ppfs::find_workload(spec_.workload, spec_.n);
      }
      ppfs::SimEngineConfig config;
      config.spec = sim;
      config.model = spec_.model;
      config.adversary = adv;
      {
        Scope s(t, "engine.make_engine");
        engine = ppfs::make_sim_engine(spec_.engine, w.protocol,
                                       std::move(w.initial), config);
      }
      if (v != nullptr) engine->enable_metrics();
      ppfs::UniformScheduler sched(spec_.n);
      ppfs::Rng rng = ppfs::Rng(spec_.point_seed()).split(0);
      Scope s(t, "engine.advance");
      for (std::size_t c = 1; c <= kChunks; ++c) {
        const std::size_t target = kSteps / kChunks * c;
        while (out.covered < target)
          out.covered += engine->advance(target - out.covered, sched, rng);
        if (v != nullptr) live_peak = std::max(live_peak, engine->universe_live());
      }
    }
    const double seconds = since(t0);
    out.fires = engine->stats().total_fires();
    out.noops = engine->stats().noops();
    out.omissions = engine->omissions();
    engine->counts_into(out.counts);
    require(check_count_unit(out, first_ ? &*first_ : nullptr, spec_.n, kSteps,
                             adv.max_omissions, sim.omission_bound));
    if (!first_) first_ = out;
    if (v != nullptr) {
      const double steps = static_cast<double>(kSteps);
      (*v)["protocols.workload_build_s"] = t->total("protocols.workload_build", from);
      (*v)["engine.make_engine_s"] = t->total("engine.make_engine", from);
      (*v)["engine.advance_ns_per_interaction"] =
          t->total("engine.advance", from) / steps * 1e9;
      engine->sync_metrics();
      registry_layers(*engine->metrics(), steps, *v);
      (*v)["core.universe.live_peak"] = static_cast<double>(live_peak);
      (*v)["sched.omissions_per_mi"] = static_cast<double>(out.omissions) / steps * 1e6;
    }
    return {seconds, kSteps, 1, 0};
  }

  ScenarioSpec spec_;
  std::optional<CountUnit> first_;
};

// --- dense-omission ----------------------------------------------------------
// beacon-or at n = 10^7 in I1 under uo:0.1, engine=auto, run to
// convergence through exp::run_replica. The benchmark counts the registry's
// initial configuration itself; the per-slice trajectory gives the
// replica's first and final configurations to check against it.
class DenseOmission final : public Workload {
 public:
  explicit DenseOmission(std::uint64_t seed) {
    spec_.workload = "beacon-or";
    spec_.n = 10'000'000;
    spec_.model = ppfs::Model::I1;
    spec_.adversary = "uo:0.1";
    spec_.engine = "auto";
    spec_.seed = seed;
    spec_.traj_every = 1;
  }

  void setup() override {
    ScenarioSpec one = spec_;
    one.fixed_steps = 1;
    one.traj_every = 0;
    (void)ppfs::exp::run_replica(one, 0);
  }

  UnitTiming unit() override {
    const std::int64_t t0 = now_ns();
    const ReplicaResult r = ppfs::exp::run_replica(spec_, 0);
    const double seconds = since(t0);
    if (r.failed()) return {seconds, r.run.steps, 1, 1};
    if (outputs_.empty()) {
      const ppfs::OneWayWorkload w =
          ppfs::find_one_way_workload(spec_.workload, spec_.n, *spec_.model);
      outputs_ = outputs_of(*w.protocol);
      initial_ = count_states(w.initial, w.protocol->num_states());
    }
    require(check_dense_replica(r, outputs_, initial_, spec_.n,
                                ppfs::parse_adversary_spec(spec_.adversary).rate));
    if (steps_ == 0) steps_ = r.run.steps;
    if (r.run.steps != steps_)
      throw CheckFailed("a repeated replica at the same seed covered " +
                        std::to_string(r.run.steps) + " interactions, first " +
                        std::to_string(steps_));
    return {seconds, r.run.steps, 1};
  }

  // The same replica through the engine API (make_engine + the probe loop
  // with the workload's own probe), metrics enabled: it must follow the
  // untraced trajectory exactly.
  TracedTiming traced_unit(Tracer& t, LayerValues& v) override {
    const UnitTiming plain = unit();
    const std::size_t from = t.size();
    const ppfs::AdversaryParams adv = ppfs::parse_adversary_spec(spec_.adversary);
    std::unique_ptr<ppfs::Engine> engine;
    ppfs::RunResult res;
    const std::int64_t t0 = now_ns();
    {
      Scope root(&t, "bench.unit");
      ppfs::OneWayWorkload w;
      {
        Scope s(&t, "protocols.workload_build");
        w = ppfs::find_one_way_workload(spec_.workload, spec_.n, *spec_.model);
      }
      ppfs::EngineConfig config;
      config.model = *spec_.model;
      config.adversary = adv;
      {
        Scope s(&t, "engine.make_engine");
        engine = ppfs::make_engine(spec_.engine, w.protocol, std::move(w.initial),
                                   config);
      }
      engine->enable_metrics();
      ppfs::UniformScheduler sched(spec_.n);
      ppfs::Rng rng = ppfs::Rng(spec_.point_seed()).split(0);
      const auto converged = w.converged;
      const ppfs::CountsProbe probe = [&](const std::vector<std::size_t>& counts,
                                          const ppfs::Protocol&) {
        Scope s(&t, "engine.probe");
        return converged(counts);
      };
      Scope s(&t, "engine.run_until");
      res = ppfs::run_engine_until(*engine, sched, rng, probe,
                                   ppfs::exp::resolve_run_options(spec_));
    }
    const double seconds = since(t0);
    if (res.steps != steps_ || !res.converged)
      throw CheckFailed("the traced replica left the untraced trajectory (" +
                        std::to_string(res.steps) + " vs " +
                        std::to_string(steps_) + " interactions)");
    const double steps = static_cast<double>(res.steps);
    const double run = t.total("engine.run_until", from);
    v["protocols.workload_build_s"] = t.total("protocols.workload_build", from);
    v["engine.make_engine_s"] = t.total("engine.make_engine", from);
    v["engine.advance_ns_per_interaction"] = t.self("engine.run_until", from) / steps * 1e9;
    v["engine.probe_share"] = t.total("engine.probe", from) / run;
    engine->sync_metrics();
    registry_layers(*engine->metrics(), steps, v);
    v["sched.omissions_per_mi"] = static_cast<double>(res.omissions) / steps * 1e6;
    return {seconds, plain.seconds, 2, plain.failed};
  }

 private:
  ScenarioSpec spec_;
  Outputs outputs_;
  std::vector<std::uint64_t> initial_;
  std::size_t steps_ = 0;
};

// --- paper-sweep ------------------------------------------------------------
// Paper-scale replicas to convergence with Definition-3 verification,
// drained by one ReplicaRunner with 2 threads.
class PaperSweep final : public Workload {
 public:
  static constexpr std::size_t kThreads = 2;

  explicit PaperSweep(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const std::string tail = ":seed=" + std::to_string(seed_);
    const char* const grids[] = {
        "exact-majority@n=8,16:model=I3:adv=budget:2:0.02:sim=skno:o=2:"
        "engine=native:verify=1:trials=16",
        "exact-majority@n=8,16:model=IO:sim=sid,naming:engine=native:"
        "verify=1:trials=16",
        // Capped: most replicas stop at 2e7 interactions unconverged, so a
        // unit's work hardly depends on the seed.
        "exact-majority@n=128:sim=sid,naming:engine=auto:trials=4:"
        "maxsteps=20000000"};
    for (const char* g : grids) {
      for (ScenarioSpec s : ppfs::exp::parse_grid(g + tail).expand()) {
        // Engine-backed replicas record their trajectory so the benchmark
        // can read the final configuration.
        if (s.engine != "native") s.traj_every = 1;
        points_.push_back(std::move(s));
      }
    }
    jobs_ = ppfs::exp::sweep_jobs(points_);
    for (const ScenarioSpec& s : points_) {
      const ppfs::AdversaryParams adv = ppfs::parse_adversary_spec(s.adversary);
      rules_.push_back({adv.rate > 0 ? adv.max_omissions : 0, s.verify_matching});
    }
    first_interactions(points_);
  }

  UnitTiming unit() override {
    ppfs::exp::RunnerOptions ro;
    ro.threads = kThreads;
    const std::int64_t t0 = now_ns();
    Report report = ppfs::exp::ReplicaRunner(ro).run_points(points_);
    const double seconds = since(t0);
    require(check_paper_report(report, rules_));
    std::uint64_t steps = 0;
    for (const auto& row : report.rows()) {
      const Outputs outputs =
          outputs_of(*ppfs::find_workload(row.spec.workload, row.spec.n).protocol);
      for (const ReplicaResult& r : row.replicas) {
        steps += r.run.steps;
        if (r.failed() || row.spec.traj_every == 0 || !r.run.converged) continue;
        const Endpoints e = trajectory_endpoints(r.traj);
        require(check_goal(Goal::Majority, outputs, e.first, e.last, row.spec.n));
      }
    }
    if (!reference_) {
      reference_ = std::move(report);
    } else if (report.fingerprint() != reference_->fingerprint()) {
      throw CheckFailed("a repeated sweep at the same seed gave another report");
    }
    return {seconds, steps, jobs_.size(), failed_in(report)};
  }

  // Native replicas re-run through the simulator API with the benchmark's
  // own majority probe: they must stop at the runner's step and end in the
  // input majority.
  void verify() override {
    for (const auto& job : jobs_) {
      if (points_[job.point].engine != "native" ||
          reference_->rows()[job.point].replicas[job.trial].failed())
        continue;
      (void)native_direct(job.point, job.trial, nullptr);
    }
  }

  TracedTiming traced_unit(Tracer& t, LayerValues& v) override {
    // The runner's drain and the same replicas run one by one, untraced.
    ppfs::exp::RunnerOptions ro;
    ro.threads = kThreads;
    std::int64_t t0 = now_ns();
    const std::uint64_t failed =
        failed_in(ppfs::exp::ReplicaRunner(ro).run_points(points_));
    const double drain = since(t0);
    t0 = now_ns();
    for (const auto& job : jobs_)
      (void)ppfs::exp::run_replica(points_[job.point], job.trial);
    const double sequential = since(t0);

    const std::size_t from = t.size();
    double switches = 0;
    double agent = 0;
    std::size_t auto_replicas = 0;
    std::uint64_t native_steps = 0;
    t0 = now_ns();
    {
      Scope root(&t, "bench.unit");
      for (const auto& job : jobs_) {
        const ScenarioSpec& spec = points_[job.point];
        if (spec.engine == "native") {
          native_steps += native_direct(job.point, job.trial, &t);
          continue;
        }
        ScenarioSpec observed = spec;
        observed.metrics_every = std::size_t{1} << 40;
        ReplicaResult r;
        {
          Scope s(&t, "exp.run_replica");
          r = ppfs::exp::run_replica(observed, job.trial);
        }
        switches += r.extras["m.auto.switches"];
        agent += r.extras["m.auto.agent_space"];
        ++auto_replicas;
      }
    }
    const double seconds = since(t0);
    v["sim.make_simulator_s"] = t.total("sim.make_simulator", from);
    v["sim.native_ns_per_interaction"] =
        t.total("sim.run", from) / static_cast<double>(native_steps) * 1e9;
    v["verify.matching_s"] = t.total("verify.matching", from);
    v["protocols.workload_build_s"] = t.total("protocols.workload_build", from);
    v["engine.auto.switches"] = switches;
    v["engine.auto.agent_share"] = auto_replicas ? agent / auto_replicas : 0.0;
    v["exp.runner.busy_share"] = sequential / (kThreads * drain);
    return {seconds, sequential, 3 * jobs_.size(), 3 * failed};
  }

 private:
  // One native simulator replica through the sim/ and verify/ APIs, keyed
  // like exp::run_replica. Returns its interaction count.
  std::uint64_t native_direct(std::size_t point, std::size_t trial, Tracer* t) {
    const ScenarioSpec& spec = points_[point];
    ppfs::Workload w;
    {
      Scope s(t, "protocols.workload_build");
      w = ppfs::find_workload(spec.workload, spec.n);
    }
    const Outputs outputs = outputs_of(*w.protocol);
    const std::vector<std::uint64_t> initial =
        count_states(w.initial, w.protocol->num_states());
    std::uint64_t ones = 0;
    std::uint64_t zeros = 0;
    for (std::size_t q = 0; q < initial.size(); ++q) {
      if (outputs[q] == 1) ones += initial[q];
      if (outputs[q] == 0) zeros += initial[q];
    }
    const int majority = ones > zeros ? 1 : 0;
    std::unique_ptr<ppfs::Simulator> sim;
    {
      Scope s(t, "sim.make_simulator");
      sim = ppfs::make_spec_simulator(ppfs::parse_sim_spec(spec.sim),
                                      ppfs::exp::resolve_model(spec), w.protocol,
                                      w.initial);
    }
    sim->record_events(spec.verify_matching);
    const ppfs::AdversaryParams adv = ppfs::parse_adversary_spec(spec.adversary);
    std::unique_ptr<ppfs::Scheduler> sched;
    if (adv.rate > 0.0) {
      sched = std::make_unique<ppfs::OmissionAdversary>(
          std::make_unique<ppfs::UniformScheduler>(spec.n), spec.n, adv);
    } else {
      sched = std::make_unique<ppfs::UniformScheduler>(spec.n);
    }
    ppfs::Rng rng = ppfs::Rng(spec.point_seed()).split(trial);
    ppfs::RunResult res;
    {
      Scope s(t, "sim.run");
      res = ppfs::run_until(
          *sim, *sched, rng,
          [&](const ppfs::Simulator& x) {
            return agreed_output(widen(x.projected_counts()), outputs) == majority;
          },
          ppfs::exp::resolve_run_options(spec));
    }
    if (spec.verify_matching) {
      Scope s(t, "verify.matching");
      const ppfs::MatchingReport rep =
          ppfs::verify_simulation(*sim, spec.max_unmatched_per_n * spec.n);
      if (!rep.ok) throw CheckFailed("native replica fails Definition-3 matching");
    }
    const std::string where = " (" + spec.point_key() + ", trial " +
                              std::to_string(trial) + ")";
    if (reference_ && reference_->rows()[point].replicas[trial].run.steps != res.steps)
      throw CheckFailed("runner replica stopped at another step than the "
                        "benchmark's majority probe" + where);
    if (res.converged)
      require(check_goal(Goal::Majority, outputs, initial,
                         widen(sim->projected_counts()), spec.n));
    return res.steps;
  }

  std::uint64_t seed_;
  std::vector<ScenarioSpec> points_;
  std::vector<ppfs::exp::ReplicaJob> jobs_;
  std::vector<PaperPointRule> rules_;
  std::optional<Report> reference_;
};

// --- sweep-service ----------------------------------------------------------
// Thousands of tiny replicas run single-threaded as k shards, each keeping
// a checkpoint file; the partials are merged and the report rendered.
class SweepService final : public Workload {
 public:
  static constexpr std::size_t kShards = 4;

  SweepService(std::uint64_t seed, std::string out_dir)
      : out_dir_(std::move(out_dir)) {
    prov_.grid = "or,exact-majority,leader@n=64,256:engine=batch";
    prov_.trials = 500;
    prov_.seed = seed;
    prov_.traj_every = 1;
    prov_.shard_count = kShards;
  }

  void setup() override {
    points_ = prov_.expand_points();
    jobs_ = ppfs::exp::sweep_jobs(points_);
    for (std::size_t i = 0; i < kShards; ++i)
      (void)ppfs::exp::shard_jobs(jobs_, i, kShards);
    first_interactions(points_);
  }

  UnitTiming unit() override {
    if (!reference_) build_reference();
    Pass pass = run_pass(nullptr, nullptr);
    check_pass(pass);
    return {pass.seconds, pass.steps, jobs_.size(), failed_in(pass.merged)};
  }

  TracedTiming traced_unit(Tracer& t, LayerValues& v) override {
    const UnitTiming plain = unit();
    const std::size_t from = t.size();
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    Pass pass = run_pass(&t, [&](const std::string& path) {
      ++writes;
      bytes += std::filesystem::file_size(path);
    });
    check_pass(pass);
    // Attribution outside the unit: the same shards without a checkpoint,
    // and the single-process fold of the union of the shards' results.
    {
      Scope s(&t, "bench.attribution");
      std::vector<std::vector<ReplicaResult>> all(points_.size());
      for (std::size_t p = 0; p < points_.size(); ++p)
        all[p].resize(points_[p].trials);
      for (std::size_t i = 0; i < kShards; ++i) {
        ppfs::exp::SweepServiceOptions opt;
        opt.threads = 1;
        ppfs::exp::SweepRun run;
        {
          Scope c(&t, "exp.run_sweep_shard.no_checkpoint");
          run = ppfs::exp::run_sweep_shard(shard(i), opt);
        }
        for (const auto& j : run.owned)
          all[j.point][j.trial] = std::move(run.results[j.point][j.trial]);
      }
      Scope f(&t, "exp.fold_report");
      (void)ppfs::exp::fold_report(points_, std::move(all));
    }
    v["exp.checkpoint_s"] = t.total("exp.run_sweep_shard", from) -
                            t.total("exp.run_sweep_shard.no_checkpoint", from);
    v["exp.checkpoint_bytes"] = static_cast<double>(bytes);
    v["exp.checkpoint_writes"] = static_cast<double>(writes);
    v["exp.partial_encode_s"] = t.total("exp.encode_partial", from);
    v["exp.partial_bytes"] = static_cast<double>(pass.partial_bytes);
    v["exp.merge_s"] = t.total("exp.merge_partials", from);
    v["exp.fold_s"] = t.total("exp.fold_report", from);
    v["exp.report_write_s"] = t.total("exp.write_report", from);
    return {pass.seconds, plain.seconds, 3 * jobs_.size(), 3 * plain.failed};
  }

 private:
  struct Pass {
    double seconds = 0;
    std::uint64_t steps = 0;
    std::size_t partial_bytes = 0;
    std::vector<ppfs::exp::SweepRun> runs;
    Report merged;
  };

  [[nodiscard]] ppfs::exp::SweepProvenance shard(std::size_t i) const {
    ppfs::exp::SweepProvenance p = prov_;
    p.shard_index = i;
    return p;
  }
  [[nodiscard]] std::string checkpoint_path(std::size_t i) const {
    return out_dir_ + "/sweep-service-shard" + std::to_string(i) + ".ck";
  }

  Pass run_pass(Tracer* t, const std::function<void(const std::string&)>& on_write) {
    for (std::size_t i = 0; i < kShards; ++i) std::remove(checkpoint_path(i).c_str());
    Pass pass;
    std::vector<std::string> partials;
    const std::int64_t t0 = now_ns();
    {
      Scope root(t, "bench.unit");
      for (std::size_t i = 0; i < kShards; ++i) {
        ppfs::exp::SweepServiceOptions opt;
        opt.threads = 1;
        opt.checkpoint_file = checkpoint_path(i);
        if (on_write)
          opt.on_replica = [&, path = opt.checkpoint_file](
                               std::size_t, std::size_t, const ScenarioSpec&,
                               std::size_t, const ReplicaResult&) { on_write(path); };
        {
          Scope s(t, "exp.run_sweep_shard");
          pass.runs.push_back(ppfs::exp::run_sweep_shard(shard(i), opt));
        }
        const auto& run = pass.runs.back();
        Scope s(t, "exp.encode_partial");
        partials.push_back(
            ppfs::exp::encode_partial(shard(i), run.points, run.results, run.owned));
      }
      {
        Scope s(t, "exp.merge_partials");
        pass.merged = ppfs::exp::merge_partials(partials);
      }
      Scope s(t, "exp.write_report");
      std::ostringstream json;
      pass.merged.write_json(json);
    }
    pass.seconds = since(t0);
    for (const std::string& p : partials) pass.partial_bytes += p.size();
    for (const auto& row : pass.merged.rows())
      for (const ReplicaResult& r : row.replicas) pass.steps += r.run.steps;
    return pass;
  }

  void check_pass(const Pass& pass) {
    for (std::size_t i = 0; i < kShards; ++i) {
      const auto ck = ppfs::exp::decode_checkpoint(
          ppfs::bin::read_file(checkpoint_path(i)));
      require(check_checkpoint(ck, pass.runs[i], jobs_));
    }
    require(check_merge(pass.merged, *reference_));
  }

  // The single-process fold of the same grid, and each replica's goal
  // (the OR, the majority, exactly one leader) read from its trajectory.
  void build_reference() {
    ppfs::exp::SweepProvenance whole = prov_;
    whole.shard_count = 1;
    ppfs::exp::SweepServiceOptions opt;
    opt.threads = 1;
    ppfs::exp::SweepRun run = ppfs::exp::run_sweep_shard(whole, opt);
    for (std::size_t p = 0; p < run.points.size(); ++p) {
      const ScenarioSpec& spec = run.points[p];
      const ppfs::Workload w = ppfs::find_workload(spec.workload, spec.n);
      const Outputs outputs = outputs_of(*w.protocol);
      const Goal goal = spec.workload == "or"       ? Goal::Or
                        : spec.workload == "leader" ? Goal::OneLeader
                                                    : Goal::Majority;
      for (const ReplicaResult& r : run.results[p]) {
        if (r.failed()) continue;
        if (!r.run.converged) throw CheckFailed("replica did not converge");
        const Endpoints e = trajectory_endpoints(r.traj);
        require(check_goal(goal, outputs, e.first, e.last, spec.n,
                           ppfs::leader_states().leader));
      }
    }
    reference_ = ppfs::exp::fold_report(run.points, std::move(run.results));
  }

  std::string out_dir_;
  ppfs::exp::SweepProvenance prov_;
  std::vector<ScenarioSpec> points_;
  std::vector<ppfs::exp::ReplicaJob> jobs_;
  std::optional<Report> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir) {
  if (name == "skno-count") return std::make_unique<SknoCount>(seed);
  if (name == "dense-omission") return std::make_unique<DenseOmission>(seed);
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(seed);
  if (name == "sweep-service") return std::make_unique<SweepService>(seed, out_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
