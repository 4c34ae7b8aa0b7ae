// perfbench: runs one named workload of the ppfs benchmark for a fixed
// time and prints one JSON line with its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --workload <name> --seed <n> --setup-only [--out-dir <dir>]
//   perfbench --selftest
//
// Untraced runs (--trace 0) report the end-to-end metrics: interactions/s
// and replicas/s from the fast-decile unit, the fast-decile cold set-up time
// (process start to the first interaction) over kSetupSamples fresh
// processes, and the peak resident memory. --setup-only is one such
// process: it sets the workload up and prints its cold set-up time. Traced
// runs (--trace 1) report the per-layer metrics, take the medians over
// their traced units, and write the recorded spans to <out-dir>.
// Exit status: 0 with a result line (correct may be false when an output
// check failed), 2 on bad arguments or an error, without a result line.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <map>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

// Taken during static initialization, before main: the set-up clock.
const std::int64_t kProcessStart = perfbench::now_ns();

// Cold set-ups timed per untraced run: this process's own, and the rest in
// fresh processes spread over the run, so that the fast decile (here the
// fastest) is taken over several of the host's contention regimes.
constexpr std::size_t kSetupSamples = 8;

// The fast-decile unit time (nearest rank; the fastest unit below ten
// units). Contention from other tenants of the host only ever slows a unit
// down and comes in regimes lasting seconds, so a run's fastest tenth
// repeats across runs where its median does not.
[[nodiscard]] double fast_decile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 10];
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  bool setup_only = false;
  std::string out_dir = ".bench_out";
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest" || key == "--setup-only") {
      (key == "--selftest" ? a.selftest : a.setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--out-dir") a.out_dir = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!a.selftest && a.workload.empty())
    throw std::invalid_argument("--workload is required");
  return a;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  std::cout << out << "}}" << std::endl;
}

// One cold set-up in a fresh process: this binary with --setup-only, its
// standard output read through a pipe. Waits for the process to end.
[[nodiscard]] double cold_setup_seconds(const Args& a) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fd[0]);
  posix_spawn_file_actions_addclose(&actions, fd[1]);
  std::string self = "/proc/self/exe";
  std::vector<std::string> args{self, "--setup-only", "--workload", a.workload,
                                "--seed", std::to_string(a.seed), "--out-dir",
                                a.out_dir};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fd[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    for (ssize_t k; (k = read(fd[0], buf, sizeof buf)) > 0;) out.append(buf, k);
  }
  close(fd[0]);
  if (rc != 0) throw std::runtime_error("could not start a set-up process");
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
    throw std::runtime_error("a set-up process failed");
  return std::stod(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
    if (args.selftest) {
      const std::size_t n = run_selftest();
      std::cerr << "selftest: all " << n << " wrong results rejected\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  try {
    std::filesystem::create_directories(args.out_dir);
    auto workload = make_workload(args.workload, args.seed, args.out_dir);
    workload->setup();
    std::vector<double> setup_seconds{(now_ns() - kProcessStart) * 1e-9};
    if (args.setup_only) {
      std::printf("%.17g\n", setup_seconds[0]);
      return 0;
    }

    const std::int64_t start = now_ns();
    const auto elapsed = [&] { return (now_ns() - start) * 1e-9; };
    try {
      if (!args.trace) {
        std::vector<double> unit_seconds;
        UnitTiming first;
        while (unit_seconds.empty() || elapsed() < args.seconds) {
          const UnitTiming u = workload->unit();
          if (unit_seconds.empty()) first = u;
          if (u.interactions != first.interactions || u.replicas != first.replicas ||
              u.failed != first.failed)
            throw CheckFailed("units at one seed did different work");
          unit_seconds.push_back(u.seconds);
          attempted += u.replicas;
          failed += u.failed;
          // Hand freed heap back between units: peak memory then reads one
          // unit's working set, not the fragmentation of repeating it.
          malloc_trim(0);
          if (setup_seconds.size() < kSetupSamples &&
              elapsed() >= args.seconds * static_cast<double>(setup_seconds.size()) /
                               kSetupSamples)
            setup_seconds.push_back(cold_setup_seconds(args));
        }
        while (setup_seconds.size() < kSetupSamples)
          setup_seconds.push_back(cold_setup_seconds(args));
        workload->verify();
        const double unit = fast_decile(unit_seconds);
        metrics["interactions_per_s"] = static_cast<double>(first.interactions) / unit;
        metrics["replicas_per_s"] =
            static_cast<double>(first.replicas - first.failed) / unit;
        metrics["setup_s"] = fast_decile(setup_seconds);
        metrics["peak_rss_mb"] = peak_rss_mb();
        std::cerr << "perfbench: " << args.workload << " " << unit_seconds.size()
                  << " units, fast decile " << unit << " s:";
        for (const double s : unit_seconds) std::cerr << " " << s;
        std::cerr << "\nperfbench: cold set-ups, s:";
        for (const double s : setup_seconds) std::cerr << " " << s;
        std::cerr << "\n";
      } else {
        Tracer tracer;
        std::map<std::string, std::vector<double>> layers;
        std::vector<double> traced;
        std::vector<double> untraced;
        std::vector<double> uncovered;
        while (traced.empty() || elapsed() < args.seconds) {
          const std::size_t from = tracer.size();
          LayerValues values;
          const TracedTiming tt = workload->traced_unit(tracer, values);
          for (const auto& [name, value] : values) layers[name].push_back(value);
          traced.push_back(tt.traced_seconds);
          untraced.push_back(tt.untraced_seconds);
          for (std::size_t i = from; i < tracer.size(); ++i) {
            if (tracer.spans()[i].name != "bench.unit") continue;
            const double root = tracer.spans()[i].seconds();
            uncovered.push_back((root - tracer.children_seconds(static_cast<int>(i))) / root);
          }
          attempted += tt.replicas;
          failed += tt.failed;
        }
        for (const auto& [name, values] : layers) metrics[name] = median(values);
        metrics["trace.overhead_share"] = median(traced) / median(untraced) - 1.0;
        metrics["trace.uncovered_share"] = median(uncovered);
        tracer.write_jsonl(args.out_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl");
        std::cerr << "perfbench: " << args.workload << " " << traced.size()
                  << " traced units\n";
      }
    } catch (const CheckFailed& e) {
      std::cerr << "perfbench: output check failed: " << e.what() << "\n";
      correct = false;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return 0;
}
