// ppfs_cli — run any (workload x simulator x model x adversary) combination
// from the command line and print the outcome, verification verdict and
// summary statistics. With no arguments it runs a representative demo.
//
//   usage: ppfs_cli [workload] [simulator] [model] [n] [rate] [budget] [seed]
//          ppfs_cli --engine=native|batch|auto [--model=M] [--adversary=SPEC]
//                   [--simulate=SIM] [workload] [n] [seed]
//          ppfs_cli --sweep=GRID [--trials=N] [--threads=K] [--seed=S]
//                   [--out=table|json|csv] [--out-file=PATH]
//                   [--shard=i/k] [--checkpoint=FILE] [--checkpoint-every=N]
//                   [--resume=FILE] [--traj-out=FILE] [--traj-every=N]
//          ppfs_cli --merge PARTIAL... [--out=FMT] [--out-file=PATH]
//                   [--metrics-out=FILE] [--traj-out=FILE]
//
//     workload   or | and | approx-majority | exact-majority | leader |
//                threshold-true | threshold-false | mod | pairing
//                (one-way models: or | max | leader | exact-majority |
//                 beacon-or)
//     simulator  naive | skno | sid | naming
//     model      TW T1 T2 T3 IT IO I1 I2 I3 I4
//     n          population size (>= 4)
//     rate       omission-insertion probability (0 disables the adversary)
//     budget     max omissions (SKnO's known bound); "uo" = unlimited
//     seed       RNG seed
//     SPEC       none | uo[:rate] | no:quiet[:rate] | no1[:rate] |
//                budget:B[:rate]   (default rate 0.1; kind may carry a
//                side suffix @starter|@reactor|@both for two-way models)
//     SIM        naive | skno:o=K | sid | naming
//
//   --engine selects a direct run (no simulation layer) through the
//   EngineDispatch facade: "native" drives the per-agent loop, "batch" the
//   count-based engine, which handles million-agent populations in
//   milliseconds — including one-way and omissive models and omission
//   adversaries. Attaching an adversary to a non-omissive model lifts it
//   to its omissive closure (TW -> T1, IT/IO -> I1): undetectable
//   omissions, the Fig. 1 embedding. On one-way models, "exact-majority"
//   resolves to the w.h.p.-exact cancellation majority (exact majority is
//   not one-way-computable).
//
//   --simulate wraps the workload in one of the paper's simulators and
//   runs THAT through the chosen engine: "batch" executes the simulator in
//   count space over interned wrapper states (engine/batch/
//   sim_batch_system.hpp), which is how SKnO reaches n = 10^6; "native"
//   drives the step-wise per-agent facade; "auto" starts on whichever
//   representation the run's dispersion favors and may switch between
//   count space and a direct agent-space driver mid-run (engine/batch/
//   regime.hpp) — the right default when the regime is not known up
//   front. Convergence is detected on the simulated projection. The default workload for --simulate runs is
//   exact-majority-gap (margin Theta(n)) at n = 50: simulated no-ops
//   cannot be leapt — the token machinery runs regardless — so the
//   margin-2 instance would need Theta(n^2) simulated interactions at any
//   speed, and simulator convergence cost is super-linear in n on ANY
//   engine (see README). Convergence demos belong at the paper's n ~ 10^2
//   with o <= 2; large-n / large-o runs demonstrate bounded-memory
//   distribution-exact execution over a fixed budget instead (they answer
//   "NO" once the budget runs out).
//
//   --sweep runs a declarative scenario grid (src/exp/) instead of a single
//   trajectory: the GRID string crosses axes (comma-separated values for
//   n / model / engine / adv / sim) into concrete run points, executes
//   `trials` replicas of every point on a --threads-sized worker pool, and
//   reports mergeable aggregate statistics (convergence rate, interaction
//   mean and p50/p90/p99, omission totals) through the shared exp::Report
//   writer. Replica RNG streams are keyed per (point, trial), so the
//   aggregate output is bit-identical for any --threads value.
//
//   Observability (src/obs): --metrics-out=FILE writes every replica's
//   flight-recorder timeline — one JSONL header line per replica
//   ({"schema":"ppfs.flight.v1","point":...,"trial":...,"every":...})
//   followed by its delta-encoded snapshots — in (grid point, trial)
//   order, bit-identical for any --threads value. --metrics-every=N sets
//   the snapshot cadence in interactions (default 2^20; enabling metrics
//   never changes results — instrumentation consumes no Rng draws).
//   --progress swaps the \r counter for one serialized JSON heartbeat
//   line per replica on stderr (machine-tailable).
//
//   Sweep service (src/exp/sweep_service.hpp): --shard=i/k runs only the
//   round-robin slice i of the flattened (point, trial) job list and
//   writes a binary PARTIAL (provenance + per-point aggregates + raw
//   replica results) to --out-file; `--merge a b c ...` folds k partials
//   back into the full report — byte-identical to the 1-process run at
//   any thread count. --checkpoint=FILE atomically rewrites a resume
//   checkpoint after every completed replica; --checkpoint-every=N
//   additionally embeds mid-replica engine snapshots captured at probe
//   slice boundaries every N interactions (--threads=1 drains only);
//   --resume=FILE continues a killed sweep from its checkpoint to the
//   byte-identical final output. --traj-out=FILE persists per-replica
//   count trajectories (--traj-every cadence, default 2^20) as a
//   delta-encoded store; ppfs_trajcat merges shard stores and decodes
//   them to JSONL. All file outputs (--out-file, --metrics-out,
//   --traj-out, checkpoints, partials) are written atomically: temp file
//   + rename, so a SIGKILL never leaves a torn file. Grammar:
//
//     workload[,workload...]@key=value[:key=value...]
//     axis keys   n (1e6 ok), model, engine, adv, sim   (comma = list)
//     scalar keys trials, seed, steps (fixed-step runs), maxsteps,
//                 checkevery, stable, probe=workload|activation, verify=0|1
//
//   examples:
//     ppfs_cli --sweep='exact-majority@n=1e6:model=T3:adv=budget:1000:engine=batch'
//              --trials=64 --threads=8 --out=json
//     ppfs_cli --sweep='or,exact-majority@n=1000,10000:engine=batch:trials=32'
//     ppfs_cli exact-majority skno I3 10 0.05 2 42
//     ppfs_cli leader sid T3 12 0.3 uo 7
//     ppfs_cli --engine=batch exact-majority 1000000 42
//     ppfs_cli --engine=batch --model=IO --adversary=budget:1000
//         exact-majority 1000000 42   (one command line)
//     ppfs_cli --engine=batch --simulate=skno:o=2            (n = 50 SKnO)
//     ppfs_cli --engine=batch --simulate=naive exact-majority 1000000
//     ppfs_cli --engine=batch --simulate=sid --adversary=uo:0.2 or 256
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/batch/dispatch.hpp"
#include "engine/runner.hpp"
#include "engine/workload_runner.hpp"
#include "exp/replica_runner.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_service.hpp"
#include "util/binio.hpp"
#include "util/trajectory.hpp"
#include "protocols/registry.hpp"
#include "sched/adversary.hpp"
#include "sim/sim_rules.hpp"
#include "verify/matching.hpp"

using namespace ppfs;

namespace {

int usage(const char* msg) {
  std::cerr << "ppfs_cli: " << msg
            << "\nusage: ppfs_cli [workload] [simulator] [model] [n] [rate] "
               "[budget] [seed]\n"
               "       ppfs_cli --engine=native|batch|auto [--model=M] "
               "[--adversary=SPEC] [--simulate=SIM] [workload] [n] [seed]\n"
               "       ppfs_cli --sweep=GRID [--trials=N] [--threads=K] "
               "[--seed=S] [--out=table|json|csv] [--out-file=PATH]\n"
               "                [--metrics-out=FILE] [--metrics-every=N] "
               "[--progress]\n"
               "                [--shard=i/k] [--checkpoint=FILE] "
               "[--checkpoint-every=N] [--resume=FILE]\n"
               "                [--traj-out=FILE] [--traj-every=N]\n"
               "       ppfs_cli --merge PARTIAL... [--out=FMT] "
               "[--out-file=PATH] [--metrics-out=FILE] [--traj-out=FILE]\n"
               "       SPEC = none|uo|no:Q|no1|budget:B[:rate], kind may "
               "carry @starter|@reactor|@both\n"
               "       SIM  = naive|skno:o=K|sid|naming (count-space "
               "simulator run; default workload exact-majority-gap, n=50)\n"
               "       GRID = workload[,workload...]@key=value[:key=value...]"
               "\n"
               "              axis keys (comma = list): n, model, engine, "
               "adv, sim\n"
               "              scalar keys: trials, seed, steps, maxsteps, "
               "checkevery, stable, probe, verify\n"
               "              e.g. 'or,exact-majority@n=1000,1e4:engine="
               "batch:adv=budget:1000:trials=32'\n";
  return 2;
}

// Minimal JSON string escaping for spec strings (quotes/backslashes;
// specs never carry control characters).
std::string json_escape_min(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Atomic file emission (temp + rename, util/binio.hpp): readers — and a
// resumed sweep after SIGKILL — see either the old complete file or the
// new complete file, never a torn mix.
bool emit_file(const std::string& path, std::string_view data) {
  if (!bin::atomic_write_file(path, data)) {
    std::cerr << "ppfs_cli: cannot write '" << path << "'\n";
    return false;
  }
  std::cerr << "wrote " << path << "\n";
  return true;
}

// Flight timelines, multiplexed: one header line per replica (schema,
// point identity, trial, cadence), then that replica's snapshot lines.
// Rows are in grid order and replicas in trial order, so the file is
// bit-identical for any --threads value (and across shard/merge).
std::string multiplex_flight(const exp::Report& report, std::size_t every) {
  std::ostringstream os;
  for (const exp::ReportRow& row : report.rows()) {
    for (std::size_t t = 0; t < row.replicas.size(); ++t) {
      os << "{\"schema\":\"ppfs.flight.v1\",\"point\":\""
         << json_escape_min(row.spec.point_key()) << "\",\"trial\":" << t
         << ",\"every\":" << every << "}\n"
         << row.replicas[t].flight;
    }
  }
  return std::move(os).str();
}

// The full-sweep trajectory records of a merged/1-process report, global
// (point, trial) order.
std::vector<TrajectoryRecord> report_trajectories(const exp::Report& report,
                                                  std::size_t every) {
  std::vector<TrajectoryRecord> records;
  for (std::size_t p = 0; p < report.rows().size(); ++p) {
    const exp::ReportRow& row = report.rows()[p];
    for (std::size_t t = 0; t < row.replicas.size(); ++t) {
      if (row.replicas[t].traj.empty()) continue;
      records.push_back(
          {p, row.spec.point_key(), t, every, row.replicas[t].traj});
    }
  }
  return records;
}

struct SweepCliOptions {
  std::string grid_text;
  std::optional<std::size_t> trials;
  std::optional<std::size_t> threads;
  std::optional<std::uint64_t> seed;
  std::string out_format = "table";
  std::string out_file;
  std::optional<std::size_t> metrics_every;
  std::string metrics_out;
  bool progress = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string checkpoint_file;
  std::size_t checkpoint_every = 0;  // in-flight snapshot cadence
  std::string resume_file;
  std::string traj_out;
  std::optional<std::size_t> traj_every;
};

// Declarative grid sweep through the sweep service: expand the grid, run
// this process's shard of the flattened job list (all of it by default),
// emit one report — or, for --shard=i/k, one mergeable binary partial.
// Exit 0 when no replica failed (failure = a replica threw, not
// non-convergence).
int run_sweep(const SweepCliOptions& cli) {
  if (cli.out_format != "table" && cli.out_format != "json" &&
      cli.out_format != "csv")
    return usage(("unknown --out format '" + cli.out_format +
                  "' (want table, json or csv)")
                     .c_str());
  exp::ScenarioGrid grid = exp::parse_grid(cli.grid_text);
  if (cli.trials) grid.trials = *cli.trials;
  if (cli.seed) grid.seed = *cli.seed;
  if (grid.trials == 0) return usage("--trials must be >= 1");
  // --metrics-out / --traj-out imply their capture; default both to the
  // recorder's standard 2^20-interaction cadence unless overridden.
  std::optional<std::size_t> metrics_every = cli.metrics_every;
  if (!cli.metrics_out.empty() && !metrics_every)
    metrics_every = std::size_t{1} << 20;
  if (metrics_every) {
    if (*metrics_every == 0) return usage("--metrics-every must be >= 1");
    grid.metrics_every = *metrics_every;
  }
  std::optional<std::size_t> traj_every = cli.traj_every;
  if (!cli.traj_out.empty() && !traj_every) traj_every = std::size_t{1} << 20;
  if (traj_every) {
    if (*traj_every == 0) return usage("--traj-every must be >= 1");
    grid.traj_every = *traj_every;
  }

  const bool sharded = cli.shard_count > 1;
  if (sharded && cli.out_file.empty())
    return usage("--shard=i/k writes a binary partial; name it with "
                 "--out-file=PATH");
  if (sharded && !cli.metrics_out.empty())
    return usage("--metrics-out is a whole-sweep output; partials carry the "
                 "timelines — write it from `ppfs_cli --merge`");

  exp::SweepProvenance prov;
  prov.grid = cli.grid_text;
  prov.trials = grid.trials;
  prov.seed = grid.seed;
  prov.metrics_every = grid.metrics_every;
  prov.traj_every = grid.traj_every;
  prov.shard_index = cli.shard_index;
  prov.shard_count = cli.shard_count;

  exp::SweepServiceOptions sopt;
  if (cli.threads) sopt.threads = *cli.threads;
  sopt.checkpoint_file = cli.checkpoint_file;
  sopt.snapshot_every = cli.checkpoint_every;
  exp::SweepCheckpoint resume_ck;
  if (!cli.resume_file.empty()) {
    resume_ck = exp::decode_checkpoint(bin::read_file(cli.resume_file));
    sopt.resume = &resume_ck;
    // Keep checkpointing into the file we resumed from unless redirected.
    if (sopt.checkpoint_file.empty()) sopt.checkpoint_file = cli.resume_file;
  }
  if (sopt.snapshot_every > 0 && sopt.checkpoint_file.empty())
    return usage("--checkpoint-every needs --checkpoint=FILE (or --resume)");

  // on_replica is serialized by the service, so both progress styles write
  // whole lines/updates atomically even with many worker threads.
  const bool progress = cli.progress;
  sopt.on_replica = [progress](std::size_t done, std::size_t total,
                               const exp::ScenarioSpec& spec,
                               std::size_t trial, const exp::ReplicaResult& r) {
    if (progress) {
      std::cerr << "{\"done\":" << done << ",\"total\":" << total
                << ",\"point\":\"" << json_escape_min(spec.point_key())
                << "\",\"trial\":" << trial << ",\"converged\":"
                << (r.run.converged ? "true" : "false")
                << ",\"interactions\":" << r.run.steps
                << (r.failed() ? ",\"error\":\"" + json_escape_min(r.error) + "\""
                               : std::string())
                << "}\n";
      return;
    }
    std::cerr << "\r[" << done << "/" << total << " replicas]"
              << (r.failed() ? " FAILED: " + r.error : "") << std::flush;
    if (r.failed()) std::cerr << "\n";
  };

  exp::SweepRun run = exp::run_sweep_shard(prov, sopt);
  if (!progress) std::cerr << "\r" << std::string(40, ' ') << "\r";
  std::cerr << run.points.size() << " grid points x " << grid.trials
            << " trials";
  if (sharded)
    std::cerr << ", shard " << cli.shard_index << "/" << cli.shard_count
              << " (" << run.owned.size() << " replicas)";
  std::cerr << "\n";

  if (sharded) {
    bool failed = false;
    for (const exp::ReplicaJob& job : run.owned)
      failed = failed || run.results[job.point][job.trial].failed();
    if (!cli.traj_out.empty()) {
      const auto records = exp::trajectory_records(run, grid.traj_every);
      if (!emit_file(cli.traj_out, encode_trajectory_store(records))) return 2;
    }
    const std::string image =
        exp::encode_partial(prov, run.points, run.results, run.owned);
    if (!emit_file(cli.out_file, image)) return 2;
    return failed ? 1 : 0;
  }

  const exp::Report report =
      exp::fold_report(run.points, std::move(run.results));
  if (!cli.metrics_out.empty() &&
      !emit_file(cli.metrics_out,
                 multiplex_flight(report, grid.metrics_every)))
    return 2;
  if (!cli.traj_out.empty() &&
      !emit_file(cli.traj_out,
                 encode_trajectory_store(
                     report_trajectories(report, grid.traj_every))))
    return 2;
  if (!cli.out_file.empty()) {
    std::ostringstream os;
    report.write(os, cli.out_format == "table" ? "json" : cli.out_format);
    if (!emit_file(cli.out_file, os.str())) return 2;
    report.print_table(std::cout);
  } else {
    report.write(std::cout, cli.out_format);
  }
  return report.any_failed() ? 1 : 0;
}

// Fold shard partials back into the full-sweep report (and optionally its
// flight-timeline / trajectory-store side files). Byte-identical to the
// 1-process run of the same grid.
int run_merge(const std::vector<std::string>& files,
              const std::string& out_format, const std::string& out_file,
              const std::string& metrics_out, const std::string& traj_out) {
  if (out_format != "table" && out_format != "json" && out_format != "csv")
    return usage(("unknown --out format '" + out_format +
                  "' (want table, json or csv)")
                     .c_str());
  if (files.empty()) return usage("--merge needs at least one partial file");
  std::vector<std::string> images;
  images.reserve(files.size());
  for (const std::string& f : files) images.push_back(bin::read_file(f));
  const exp::SweepProvenance prov = exp::partial_provenance(images.front());
  const exp::Report report = exp::merge_partials(images);
  std::cerr << "merged " << images.size() << " partial(s): "
            << report.rows().size() << " grid points x " << prov.trials
            << " trials\n";

  if (!metrics_out.empty() &&
      !emit_file(metrics_out, multiplex_flight(report, prov.metrics_every)))
    return 2;
  if (!traj_out.empty() &&
      !emit_file(traj_out, encode_trajectory_store(report_trajectories(
                               report, prov.traj_every))))
    return 2;
  if (!out_file.empty()) {
    std::ostringstream os;
    report.write(os, out_format == "table" ? "json" : out_format);
    if (!emit_file(out_file, os.str())) return 2;
    report.print_table(std::cout);
  } else {
    report.write(std::cout, out_format);
  }
  return report.any_failed() ? 1 : 0;
}

Model parse_model(const std::string& s) {
  for (Model m : kAllModels)
    if (model_name(m) == s) return m;
  throw std::invalid_argument("unknown model '" + s + "'");
}

// Population sizes up to 10^9 are routine for the count-space engines, so
// accept the sweep grammar's scientific shorthand ("1e9") alongside plain
// digits, in full 64-bit range (stoul would be fine on LP64, but say what
// we mean).
std::size_t parse_population(const std::string& s) {
  const std::size_t e = s.find_first_of("eE");
  if (e == std::string::npos) return std::stoull(s);
  const std::uint64_t base = std::stoull(s.substr(0, e));
  const std::uint64_t exp = std::stoull(s.substr(e + 1));
  std::uint64_t out = base;
  for (std::uint64_t i = 0; i < exp; ++i) out *= 10;
  return out;
}

// Direct run through the engine facade; the batch engine makes n = 10^6
// populations practical from the command line, in every model and under
// every omission adversary.
int run_with_engine(const std::string& kind, Model model,
                    const std::string& adversary_spec,
                    const std::string& workload, std::size_t n,
                    std::uint64_t seed) {
  EngineConfig config;
  config.model = model;
  const AdversaryParams adv = parse_adversary_spec(adversary_spec);
  if (adv.rate > 0.0) config.adversary = adv;

  std::unique_ptr<Engine> engine;
  std::string workload_name;
  CountsProbe probe;
  // Above kPerAgentLimit the registry hands out counts instead of a
  // per-agent vector (n = 10^9 runs) and only the count-space engines
  // apply — make_workload_engine rejects "native" with a clear error.
  if (is_one_way(model)) {
    const OneWayWorkload w = find_one_way_workload(workload, n, model);
    workload_name = w.name;
    engine = make_workload_engine(kind, w, config);
    probe = workload_counts_probe(w);
  } else {
    const Workload w = find_workload(workload, n);
    workload_name = w.name;
    engine = make_workload_engine(kind, w, config);
    probe = workload_counts_probe(w);
  }

  UniformScheduler sched(n);
  Rng rng(seed);
  RunOptions opt;
  // The batch engine leaps over no-op runs, so give it an interaction
  // budget (and probe cadence) sized for n^2-scale convergence times. A UO
  // adversary never quiesces, so its omissive events cost O(1) each
  // forever — cap those runs so a never-converging workload answers "NO"
  // in bounded time instead of grinding toward 10^15.
  const bool persistent_adversary =
      config.adversary && config.adversary->kind == AdversaryKind::UO;
  opt.max_steps = kind != "native"
                      ? (persistent_adversary ? 1'000'000'000'000ULL
                                              : 1'000'000'000'000'000ULL)
                      : 100'000'000;
  opt.check_every = kind != "native" ? (1u << 22) : 4096;
  const RunResult res = run_engine_until(*engine, sched, rng, probe, opt);
  const RunStats& stats = engine->stats();
  std::cout << kind << " engine";
  if (kind == "auto") std::cout << " [active: " << engine->active_kind() << "]";
  std::cout << " on " << workload_name << " under "
            << model_name(engine->model());
  if (config.adversary) {
    std::cout << " + " << adversary_kind_name(config.adversary->kind)
              << " adversary (rate " << config.adversary->rate << ")";
    if (engine->model() != model)
      std::cout << " [lifted from " << model_name(model) << "]";
  }
  std::cout << "\n"
            << "  converged:           " << (res.converged ? "yes" : "NO") << "\n"
            << "  interactions:        " << res.steps << "\n"
            << "  rule fires:          " << stats.total_fires() << "\n"
            << "  no-op interactions:  " << stats.noops() << "\n"
            << "  omissions delivered: " << stats.omissions() << " ("
            << stats.omissive_fires() << " state-changing)\n"
            << "  convergence step:    ";
  if (stats.convergence_step() == RunStats::kNoConvergence) std::cout << "never";
  else std::cout << stats.convergence_step();
  std::cout << "\n";
  std::cout << "  final counts:       ";
  const auto counts = engine->counts();
  const Protocol& proto = engine->protocol();
  for (State q = 0; q < counts.size(); ++q) {
    if (counts[q] > 0)
      std::cout << ' ' << proto.state_name(q) << '=' << counts[q];
  }
  std::cout << "\n  top rules:          ";
  for (const auto& rule : stats.top_rules(3)) {
    std::cout << " (" << proto.state_name(rule.s) << ','
              << proto.state_name(rule.r) << ")x" << rule.count;
  }
  std::cout << "\n";
  return res.converged ? 0 : 1;
}

// A simulator wrapped around the workload, run through either engine. The
// probe runs on the simulated projection; "batch" executes the simulator
// in count space over interned wrapper states (n = 10^6 territory).
int run_with_sim_engine(const std::string& kind, const std::string& sim_spec,
                        std::optional<Model> model,
                        const std::string& adversary_spec,
                        const std::string& workload, std::size_t n,
                        std::uint64_t seed) {
  SimEngineConfig config;
  config.spec = parse_sim_spec(sim_spec);
  config.model = model;
  const AdversaryParams adv = parse_adversary_spec(adversary_spec);
  if (adv.rate > 0.0) config.adversary = adv;

  const Workload w = find_workload(workload, n);
  auto engine = make_sim_engine(kind, w.protocol, w.initial, config);
  CountsProbe probe = workload_counts_probe(w);

  UniformScheduler sched(n);
  Rng rng(seed);
  RunOptions opt;
  // The naive wrapper adds no state, so its count-space runs leap bare-
  // protocol no-op oceans — budget it like a plain batch run. The real
  // simulators churn wrapper state on (nearly) every delivery and pay per
  // fire on any engine, so their budget is sized in fires.
  opt.max_steps =
      config.spec.kind == "naive" ? 20'000'000'000'000ULL : 1'000'000'000ULL;
  opt.check_every = 1u << 20;
  const RunResult res = run_engine_until(*engine, sched, rng, probe, opt);
  const RunStats& stats = engine->stats();
  std::cout << kind << " engine";
  if (kind == "auto") std::cout << " [active: " << engine->active_kind() << "]";
  std::cout << " simulating " << w.name << " via " << config.spec.kind;
  if (config.spec.kind == "skno")
    std::cout << "(o=" << config.spec.omission_bound << ")";
  std::cout << " under " << model_name(engine->model());
  if (config.adversary) {
    std::cout << " + " << adversary_kind_name(config.adversary->kind)
              << " adversary (rate " << config.adversary->rate << ")";
  }
  std::cout << "\n"
            << "  converged (pi_P):    " << (res.converged ? "yes" : "NO") << "\n"
            << "  physical interactions: " << res.steps << "\n";
  // The two kinds observe fires at different levels: the count-space
  // engine counts wrapper count-changes, the step-wise facade counts
  // interactions that emitted a simulated update. Label them accordingly
  // (and only the count-space engine has an interned universe to report).
  if (kind != "native") {
    std::cout << "  wrapper rule fires:  " << stats.total_fires() << "\n"
              << "  no-op interactions:  " << stats.noops() << "\n"
              << "  omissions delivered: " << stats.omissions() << "\n"
              << "  live wrapper states: " << engine->universe_live() << "\n";
  } else {
    std::cout << "  simulating fires:    " << stats.total_fires() << "\n"
              << "  sim-silent interactions: " << stats.noops() << "\n"
              << "  omissions delivered: " << stats.omissions() << "\n";
  }
  std::cout << "  convergence step:    ";
  if (stats.convergence_step() == RunStats::kNoConvergence) std::cout << "never";
  else std::cout << stats.convergence_step();
  std::cout << "\n  projected counts:   ";
  const auto counts = engine->counts();
  const Protocol& proto = engine->protocol();
  for (State q = 0; q < counts.size(); ++q) {
    if (counts[q] > 0)
      std::cout << ' ' << proto.state_name(q) << '=' << counts[q];
  }
  std::cout << "\n";
  return res.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "exact-majority";
  std::string simulator = "skno";
  std::string model_s = "I3";
  std::size_t n = 10;
  double rate = 0.05;
  std::size_t budget = 2;
  std::uint64_t seed = 42;

  try {
    // --sweep=GRID switches to the declarative grid form (src/exp/).
    std::vector<std::string> args(argv + 1, argv + argc);
    // stoul would silently wrap "--trials=-1" to a huge count and stop
    // at trailing garbage ("--trials=8x" -> 8); demand digits only.
    const auto parse_count = [](const std::string& flag,
                                const std::string& v) -> std::uint64_t {
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        throw std::invalid_argument("bad value '" + v + "' for " + flag);
      return std::stoull(v);
    };
    if (!args.empty() && args[0].rfind("--sweep=", 0) == 0) {
      SweepCliOptions cli;
      cli.grid_text = args[0].substr(8);
      for (std::size_t pos = 1; pos < args.size(); ++pos) {
        if (args[pos].rfind("--trials=", 0) == 0)
          cli.trials = parse_count("--trials", args[pos].substr(9));
        else if (args[pos].rfind("--threads=", 0) == 0)
          cli.threads = parse_count("--threads", args[pos].substr(10));
        else if (args[pos].rfind("--seed=", 0) == 0)
          cli.seed = parse_count("--seed", args[pos].substr(7));
        else if (args[pos].rfind("--out=", 0) == 0)
          cli.out_format = args[pos].substr(6);
        else if (args[pos].rfind("--out-file=", 0) == 0)
          cli.out_file = args[pos].substr(11);
        else if (args[pos].rfind("--metrics-every=", 0) == 0)
          cli.metrics_every =
              parse_count("--metrics-every", args[pos].substr(16));
        else if (args[pos].rfind("--metrics-out=", 0) == 0)
          cli.metrics_out = args[pos].substr(14);
        else if (args[pos].rfind("--shard=", 0) == 0) {
          const std::string spec = args[pos].substr(8);
          const std::size_t slash = spec.find('/');
          if (slash == std::string::npos)
            return usage("--shard wants i/k, e.g. --shard=0/4");
          cli.shard_index = parse_count("--shard", spec.substr(0, slash));
          cli.shard_count = parse_count("--shard", spec.substr(slash + 1));
          if (cli.shard_count == 0 || cli.shard_index >= cli.shard_count)
            return usage("--shard=i/k needs 0 <= i < k");
        } else if (args[pos].rfind("--checkpoint=", 0) == 0)
          cli.checkpoint_file = args[pos].substr(13);
        else if (args[pos].rfind("--checkpoint-every=", 0) == 0)
          cli.checkpoint_every =
              parse_count("--checkpoint-every", args[pos].substr(19));
        else if (args[pos].rfind("--resume=", 0) == 0)
          cli.resume_file = args[pos].substr(9);
        else if (args[pos].rfind("--traj-out=", 0) == 0)
          cli.traj_out = args[pos].substr(11);
        else if (args[pos].rfind("--traj-every=", 0) == 0)
          cli.traj_every = parse_count("--traj-every", args[pos].substr(13));
        else if (args[pos] == "--progress")
          cli.progress = true;
        else
          return usage(("unknown sweep flag '" + args[pos] + "'").c_str());
      }
      return run_sweep(cli);
    }

    // --merge folds shard partials back into the full-sweep report.
    if (!args.empty() && args[0] == "--merge") {
      std::vector<std::string> files;
      std::string out_format = "table";
      std::string out_file;
      std::string metrics_out;
      std::string traj_out;
      for (std::size_t pos = 1; pos < args.size(); ++pos) {
        if (args[pos].rfind("--out=", 0) == 0)
          out_format = args[pos].substr(6);
        else if (args[pos].rfind("--out-file=", 0) == 0)
          out_file = args[pos].substr(11);
        else if (args[pos].rfind("--metrics-out=", 0) == 0)
          metrics_out = args[pos].substr(14);
        else if (args[pos].rfind("--traj-out=", 0) == 0)
          traj_out = args[pos].substr(11);
        else if (args[pos].rfind("--", 0) == 0)
          return usage(("unknown merge flag '" + args[pos] + "'").c_str());
        else
          files.push_back(args[pos]);
      }
      return run_merge(files, out_format, out_file, metrics_out, traj_out);
    }

    // --engine=native|batch|auto switches to the engine-facade run form.
    if (!args.empty() && args[0].rfind("--engine=", 0) == 0) {
      const std::string kind = args[0].substr(9);
      std::optional<Model> model_opt;
      std::string adversary = "none";
      std::string simulate;
      std::size_t pos = 1;
      while (pos < args.size() && args[pos].rfind("--", 0) == 0) {
        if (args[pos].rfind("--model=", 0) == 0)
          model_opt = parse_model(args[pos].substr(8));
        else if (args[pos].rfind("--adversary=", 0) == 0)
          adversary = args[pos].substr(12);
        else if (args[pos].rfind("--simulate=", 0) == 0)
          simulate = args[pos].substr(11);
        else
          return usage(("unknown flag '" + args[pos] + "'").c_str());
        ++pos;
      }
      // Simulated runs default to the margin-Theta(n) exact-majority
      // instance at the paper's population scale (see the header comment:
      // simulator convergence cost is super-linear in n on any engine).
      if (!simulate.empty()) workload = "exact-majority-gap";
      if (pos < args.size()) workload = args[pos++];
      n = pos < args.size() ? parse_population(args[pos++])
                            : (simulate.empty() ? 1'000'000 : 50);
      if (pos < args.size()) seed = std::stoull(args[pos++]);
      if (!simulate.empty())
        return run_with_sim_engine(kind, simulate, model_opt, adversary,
                                   workload, n, seed);
      return run_with_engine(kind, model_opt.value_or(Model::TW), adversary,
                             workload, n, seed);
    }

    if (argc > 1) workload = argv[1];
    if (argc > 2) simulator = argv[2];
    if (argc > 3) model_s = argv[3];
    if (argc > 4) n = std::stoul(argv[4]);
    if (argc > 5) rate = std::stod(argv[5]);
    if (argc > 6) budget = std::string(argv[6]) == "uo" ? SIZE_MAX
                                                        : std::stoul(argv[6]);
    if (argc > 7) seed = std::stoull(argv[7]);

    const Model model = parse_model(model_s);
    const Workload w = find_workload(workload, n);
    // SKnO's omission bound is the adversary's budget (0 under UO).
    SimSpec spec;
    spec.kind = simulator;
    spec.omission_bound = budget == SIZE_MAX ? 0 : budget;
    auto sim = make_spec_simulator(spec, model, w.protocol, w.initial);

    std::unique_ptr<Scheduler> sched;
    if (rate > 0 && is_omissive(model)) {
      AdversaryParams p;
      p.kind = budget == SIZE_MAX ? AdversaryKind::UO : AdversaryKind::Budget;
      p.rate = rate;
      if (budget != SIZE_MAX) p.max_omissions = budget;
      sched = std::make_unique<OmissionAdversary>(
          std::make_unique<UniformScheduler>(n), n, p);
    } else {
      sched = std::make_unique<UniformScheduler>(n);
    }

    Rng rng(seed);
    auto counts_probe = workload_counts_probe(w);
    auto probe = [&](const Simulator& s) {
      std::vector<std::size_t> counts(w.protocol->num_states(), 0);
      for (State q : s.projection()) ++counts[q];
      return counts_probe(counts, *w.protocol);
    };
    RunOptions opt;
    opt.max_steps = 20'000'000;
    const RunResult res = run_until(*sim, *sched, rng, probe, opt);

    std::cout << sim->describe() << " on " << w.name << "\n"
              << "  converged:            " << (res.converged ? "yes" : "NO")
              << "\n"
              << "  interactions:         " << res.steps << "\n"
              << "  omissions delivered:  " << res.omissions << "\n"
              << "  simulated half-steps: " << sim->simulated_updates() << "\n";
    std::cout << "  final projection:    ";
    for (State q : sim->projection())
      std::cout << ' ' << w.protocol->state_name(q);
    std::cout << "\n";
    const MatchingReport rep = verify_simulation(*sim, 4 * n);
    std::cout << "  verification:         "
              << (rep.ok ? "ok" : "FAILED") << " (" << rep.pairs
              << " matched pairs, " << rep.unmatched << " open)\n";
    return res.converged && rep.ok ? 0 : 1;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
