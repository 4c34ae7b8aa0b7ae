// Convenience glue between Workloads (protocols/registry.hpp) and the run
// loop: build the probe a workload declares and execute it natively under
// the uniform scheduler. The native numbers are the baseline that every
// simulator-overhead experiment divides by.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "engine/batch/dispatch.hpp"
#include "engine/native.hpp"
#include "engine/runner.hpp"
#include "protocols/registry.hpp"

namespace ppfs {

// A probe over projected state counts, derived from the workload:
// either its custom `converged` functor or consensus on expected_output.
[[nodiscard]] std::function<bool(const std::vector<std::size_t>&,
                                 const Protocol&)>
workload_counts_probe(const Workload& w);

// Same, for a one-way workload (counts of its lowered two-way face).
[[nodiscard]] std::function<bool(const std::vector<std::size_t>&,
                                 const Protocol&)>
workload_counts_probe(const OneWayWorkload& w);

// An engine of `kind` over a registry workload's (two-way or one-way)
// initial configuration: its per-agent vector, or its counts when the
// registry hands out counts only (above kPerAgentLimit agents, where
// make_engine_from_counts rejects "native").
template <class W>
[[nodiscard]] std::unique_ptr<Engine> make_workload_engine(
    const std::string& kind, const W& w, const EngineConfig& config) {
  return w.initial_counts.empty()
             ? make_engine(kind, w.protocol, w.initial, config)
             : make_engine_from_counts(kind, w.protocol, w.initial_counts,
                                       config);
}

// Run the workload natively (two-way, no omissions). Returns the result;
// `converged` reflects the workload's own success criterion.
[[nodiscard]] RunResult run_native_workload(const Workload& w, std::uint64_t seed,
                                            const RunOptions& opt = {});

// Same run, but through the experiment layer (exp/scenario.hpp): the
// workload is wrapped in a single-trial ScenarioSpec and executed by
// exp::run_replica with the engine chosen by name — "native" replays the
// per-agent loop, "batch" advances the count chain under the uniform
// scheduler. The replica RNG stream is keyed off (spec, seed, trial 0), so
// the run is reproducible but not stream-compatible with a raw Rng(seed).
// If `stats_out` is non-null the engine's RunStats are copied there.
[[nodiscard]] RunResult run_workload_with_engine(const std::string& engine_kind,
                                                 const Workload& w,
                                                 std::uint64_t seed,
                                                 const RunOptions& opt = {},
                                                 RunStats* stats_out = nullptr);

}  // namespace ppfs
