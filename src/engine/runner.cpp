#include "engine/workload_runner.hpp"

#include "exp/scenario.hpp"

namespace ppfs {

namespace {

std::function<bool(const std::vector<std::size_t>&, const Protocol&)>
counts_probe(std::function<bool(const std::vector<std::size_t>&)> converged,
             int expected) {
  if (converged) {
    return [converged](const std::vector<std::size_t>& counts,
                       const Protocol&) { return converged(counts); };
  }
  return [expected](const std::vector<std::size_t>& counts, const Protocol& p) {
    for (State q = 0; q < counts.size(); ++q) {
      if (counts[q] > 0 && p.output(q) != expected) return false;
    }
    return true;
  };
}

}  // namespace

std::function<bool(const std::vector<std::size_t>&, const Protocol&)>
workload_counts_probe(const Workload& w) {
  return counts_probe(w.converged, w.expected_output);
}

std::function<bool(const std::vector<std::size_t>&, const Protocol&)>
workload_counts_probe(const OneWayWorkload& w) {
  return counts_probe(w.converged, w.expected_output);
}

RunResult run_native_workload(const Workload& w, std::uint64_t seed,
                              const RunOptions& opt) {
  NativeSystem sys(w.protocol, w.initial);
  UniformScheduler sched(w.initial.size());
  Rng rng(seed);
  auto counts_probe = workload_counts_probe(w);
  auto probe = [&](const NativeSystem& s) {
    return counts_probe(s.population().counts(), s.population().protocol());
  };
  return run_until(sys, sched, rng, probe, opt);
}

RunResult run_workload_with_engine(const std::string& engine_kind,
                                   const Workload& w, std::uint64_t seed,
                                   const RunOptions& opt, RunStats* stats_out) {
  exp::ScenarioSpec spec;
  spec.workload = w.name;
  spec.custom = std::make_shared<Workload>(w);
  spec.n = w.initial.size();
  spec.engine = engine_kind;
  spec.seed = seed;
  spec.max_steps = opt.max_steps;
  spec.check_every = opt.check_every;
  spec.stable_checks = opt.stable_checks;
  return exp::run_replica(spec, /*trial=*/0, stats_out).run;
}

}  // namespace ppfs
