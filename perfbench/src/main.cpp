// perfbench: the end-to-end benchmark of spooftrack.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workers N] [--workdir DIR]
//
// One process builds the workload's inputs from the seed (set-up, repeated
// and reported as a median), then runs whole rounds of the workload's timed
// operations until S seconds of rounds have been measured, checks the
// outputs, and prints its result as the last stdout line: one JSON object
// with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
// the end-to-end metrics; `--trace 1` alternates untraced and traced rounds,
// runs the layer sweep with spans around every layer call, prints the layer
// tables and reports the per-layer metrics plus the tracing overhead of the
// sweep's span-dense passes.
// perfbench/README.md describes the workloads, metrics and checks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every traced run reports every one of these (BENCHMARK.json lists them).
constexpr MetricSpec kPerLayer[] = {
    {"topology.synthesize_s", "s"},
    {"testbed.construct_s", "s"},
    {"experiment.truth_mb", "MB"},
    {"experiment.cpu_utilisation", "ratio"},
    {"campaign.plan_s", "s"},
    {"campaign.unique_configs", "count"},
    {"campaign.cold_runs", "count"},
    {"campaign.warm_runs", "count"},
    {"bgp.propagate_s", "s"},
    {"bgp.propagate_cpu_s", "s"},
    {"bgp.rounds", "count"},
    {"bgp.cold_run_ms", "ms"},
    {"measure.extract_s", "s"},
    {"measure.feed_s", "s"},
    {"measure.traceroute_s", "s"},
    {"measure.repair_s", "s"},
    {"measure.inference_s", "s"},
    {"measure.driver_s", "s"},
    {"measure.build_matrix_s", "s"},
    {"measure.traces", "count"},
    {"measure.matrix_mb", "MB"},
    {"io.save_s", "s"},
    {"io.load_s", "s"},
    {"io.artifact_mb", "MB"},
    {"journal.mb", "MB"},
    {"journal.files", "count"},
    {"fault.degraded_configs", "count"},
    {"fault.failed_configs", "count"},
    {"cluster.refine_s", "s"},
    {"cluster.count", "count"},
    {"scheduler.greedy_s", "s"},
    {"scheduler.random_ensemble_s", "s"},
    {"traffic.deliver_ms", "ms"},
    {"traffic.honeypot_ms", "ms"},
    {"traffic.packets", "count"},
    {"attribution.mixture_ms", "ms"},
    {"attribution.components", "count"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workers N] [--workdir DIR]\n"
            << "workloads: campaign-2k7 campaign-67k campaign-2k7-journal "
               "traceback-2k7\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  std::uint64_t workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(flag, value);
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--workers") {
      workers = parse_u64(flag, value);
      if (workers == 0) usage("--workers must be positive");
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.workdir.empty()) options.workdir = ".bench_build/work";

  // The worker budget: min(nproc, 4) unless --workers asks for fewer, and
  // never more threads than the host has.
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  options.workers = std::min<std::size_t>(hardware, 4);
  if (workers > 0) options.workers = std::min<std::size_t>(workers, hardware);
  return options;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  std::ostringstream out;
  out << std::setprecision(12) << value;
  return out.str();
}

void print_metrics(const Metrics& metrics, std::ostream& out) {
  for (const Metrics::Entry& entry : metrics.entries()) {
    out << "  " << std::left << std::setw(30) << entry.name << std::right
        << std::setw(16) << json_number(entry.value) << " " << entry.unit
        << "\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Options& options) {
  namespace fs = std::filesystem;
  // Pin the process-wide worker budget before any pool starts: every
  // worker count the library resolves by default (campaign chains, the
  // measurement driver, greedy scans, parallel_for) reads it.
  const std::string budget = std::to_string(options.workers);
  setenv("SPOOFTRACK_THREADS", budget.c_str(), 1);
  if (st::util::default_worker_count() != options.workers) {
    throw std::runtime_error("worker budget did not take effect");
  }

#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string simd(
      st::util::simd_level_name(st::util::active_simd_level()));
  const unsigned hardware = std::thread::hardware_concurrency();
  std::cout << "perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n"
            << "host hardware_concurrency=" << hardware
            << " workers=" << options.workers
            << " build_type=" << build_type
            << " optimised=" << (optimised ? "yes" : "NO") << " simd=" << simd
            << "\n";
  if (!optimised) {
    std::cout << "WARNING: this build has no optimisation; its timings are "
                 "not comparable\n";
  }

  Options run_options = options;
  run_options.workdir = (fs::path(options.workdir) /
                         (options.workload + "-" + std::to_string(getpid())))
                            .string();
  fs::remove_all(run_options.workdir);
  fs::create_directories(run_options.workdir);

  auto workload = make_workload(run_options);
  Tracer round_tracer;
  Tracer* traced = options.trace ? &round_tracer : nullptr;

  std::vector<double> setup_times;
  for (std::size_t k = 0; k < workload->setup_repeats(); ++k) {
    const Stopwatch watch;
    workload->setup(traced);
    setup_times.push_back(watch.elapsed().wall);
  }

  Checks checks;
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> walls, cpus, traced_walls;
  double measured = 0.0;
  Tracer sweep_tracer;

  // One round. An exception from the program fails the operation that
  // threw: it counts as attempted and failed, the round's other outputs are
  // dropped, and the run goes on with the next round.
  auto attempt = [&](std::uint64_t r, Tracer* tracer) -> std::optional<Timing> {
    const Stopwatch watch;
    try {
      return workload->round(r, tracer, checks, attempted);
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      measured += watch.elapsed().wall;
      std::cout << "OPERATION FAILED in round " << r << ": " << e.what()
                << "\n";
      return std::nullopt;
    }
  };

  // Round 0 is untraced; its outputs feed verify() and the layer sweep,
  // and are released before the remaining rounds.
  if (const std::optional<Timing> first = attempt(0, nullptr)) {
    walls.push_back(first->wall);
    cpus.push_back(first->cpu);
    measured += first->wall;
    workload->verify(checks, report);
    if (options.trace) workload->sweep(sweep_tracer, checks, report);
  } else {
    checks.expect(false, "round 0 failed, so its outputs cannot be checked");
  }
  workload->release();

  // Whole rounds until the measured time reaches --seconds, and at least
  // five rounds (two when traced), so that even 10 s rounds give a median
  // of five. A traced run alternates untraced and traced rounds.
  const std::size_t min_rounds = options.trace ? 2 : 5;
  for (std::uint64_t r = 1; measured < options.seconds || r < min_rounds;
       ++r) {
    const bool trace_round = options.trace && r % 2 == 1;
    const std::optional<Timing> t =
        attempt(r, trace_round ? traced : nullptr);
    if (!t) continue;
    (trace_round ? traced_walls : walls).push_back(t->wall);
    if (!trace_round) cpus.push_back(t->cpu);
    measured += t->wall;
  }

  workload->summarize(report);
  std::cout << "round_s samples:";
  for (const double wall : walls) std::cout << " " << wall;
  std::cout << "\nround_cpu_s samples:";
  for (const double cpu : cpus) std::cout << " " << cpu;
  std::cout << "\n";
  std::cout << "rounds: " << walls.size() + traced_walls.size()
            << " (traced " << traced_walls.size() << "), setups: "
            << setup_times.size() << ", checks passed: " << checks.passed()
            << "\n";
  std::cout << "workload metrics:\n";
  print_metrics(report.named, std::cout);
  for (const std::string& line : report.lines) std::cout << line << "\n";

  Metrics out;
  if (!options.trace) {
    out.set("setup_s", median(setup_times), "s");
    out.set("round_s", median(walls), "s");
    out.set("round_cpu_s", median(cpus), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "end-to-end metrics:\n";
  } else {
    report.layers.set(
        "testbed.construct_s",
        median(round_tracer.durations("testbed.construct")), "s");
    report.layers.set(
        "trace.spans",
        static_cast<double>(round_tracer.spans().size() +
                            sweep_tracer.spans().size()),
        "count");
    round_tracer.print_layer_table(std::cout,
                                   options.workload + " set-up and rounds");
    sweep_tracer.print_layer_table(std::cout,
                                   options.workload + " layer sweep");
    if (!traced_walls.empty()) {
      std::cout << "traced round " << median(traced_walls)
                << " s vs untraced " << median(walls) << " s\n";
    }
    for (const MetricSpec& spec : kPerLayer) {
      const auto& entries = report.layers.entries();
      const auto it = std::find_if(
          entries.begin(), entries.end(),
          [&](const Metrics::Entry& e) { return e.name == spec.name; });
      if (it == entries.end()) {
        throw std::logic_error(std::string("layer metric not measured: ") +
                               spec.name);
      }
      out.set(spec.name, it->value, spec.unit);
    }
    const fs::path trace_dir = fs::path(options.workdir) / "traces";
    fs::create_directories(trace_dir);
    const std::string trace_path =
        (trace_dir / (options.workload + "-seed" +
                      std::to_string(options.seed) + ".json"))
            .string();
    const std::vector<std::pair<std::string, std::string>> meta = {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"hardware_concurrency", std::to_string(hardware)},
        {"workers", budget},
        {"build_type", build_type},
        {"optimised", optimised ? "yes" : "no"},
        {"simd", simd}};
    write_chrome_json(trace_path, meta, {&round_tracer, &sweep_tracer});
    std::cout << "trace: " << trace_path << "\n";
    std::cout << "per-layer metrics:\n";
  }
  print_metrics(out, std::cout);
  fs::remove_all(run_options.workdir);

  for (const std::string& failure : checks.failures()) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (checks.ok() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first_metric = true;
  for (const Metrics::Entry& entry : out.entries()) {
    json << (first_metric ? "" : ", ") << '"' << entry.name
         << "\": {\"value\": " << json_number(entry.value)
         << ", \"unit\": \"" << entry.unit << "\"}";
    first_metric = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
  } else if (failures_.size() < 64) {
    failures_.push_back(what);
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::logic_error("percentile of no samples");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0,
                                          static_cast<double>(values.size())));
  return values[index - 1];
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
