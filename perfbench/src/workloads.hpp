// The benchmark's workloads. Each one is a repeated, identical unit of work
// (same seed, same work, outputs checked and compared across units) that
// goes through the program's own entry points.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

// An output check rejected what the program produced.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct UnitTiming {
  double seconds = 0;             // wall time of the unit's timed work
  std::uint64_t interactions = 0; // physical interactions it covered
  std::uint64_t replicas = 0;     // replicas it attempted (operations)
  std::uint64_t failed = 0;       // of those, replicas that threw
};

struct TracedTiming {
  double traced_seconds = 0;    // the traced unit, inside its root span
  double untraced_seconds = 0;  // the same work without tracing
  std::uint64_t replicas = 0;   // replicas attempted, traced or not
  std::uint64_t failed = 0;     // of those, replicas that threw
};

// Per-layer values of one traced unit, keyed by BENCHMARK.json per_layer
// names. Layers a workload does not exercise are left out (reported as 0).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  // Cold set-up through the program's own path: resolve the workload,
  // build the initial configuration and the engine, and (for sweeps)
  // expand the grid and the job list, then stop after one interaction.
  virtual void setup() = 0;
  // One untraced unit; throws CheckFailed if an output is wrong.
  virtual UnitTiming unit() = 0;
  // One traced unit: spans go to `tracer` under a root span "bench.unit"
  // that covers exactly the traced work; `values` receives the layers.
  virtual TracedTiming traced_unit(Tracer& tracer, LayerValues& values) = 0;
  // Checks that need more than one unit's output, run once after the
  // timed units. Throws CheckFailed.
  virtual void verify() {}
};

// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& out_dir);

}  // namespace perfbench
