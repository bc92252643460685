// Shared pieces of the end-to-end benchmark: options, the result record,
// property checks, the workload interface and the helpers several
// workloads call (testbed configs, plans, incidents, the layer sweep).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

namespace st = spooftrack;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 0;  // resolved worker budget
  std::string workdir;      // scratch files (artifacts, journals, traces)
};

/// Property checks. A failed check is recorded with its description; any
/// failure makes the run report correct=false and exit non-zero.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const noexcept { return failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  std::size_t passed() const noexcept { return passed_; }

 private:
  std::vector<std::string> failures_;
  std::size_t passed_ = 0;
};

/// Named values with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Wall and process CPU time of one measured step.
struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
};

class Stopwatch {
 public:
  Stopwatch() : wall_(wall_s()), cpu_(process_cpu_s()) {}
  Timing elapsed() const { return {wall_s() - wall_, process_cpu_s() - cpu_}; }

 private:
  double wall_;
  double cpu_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]) of raw samples.
double percentile(std::vector<double> values, double p);

/// Everything a run reports besides the end-to-end metrics.
struct Report {
  Metrics layers;      // per-layer metrics (traced run)
  Metrics named;       // the workload's own step metrics, printed as text
  std::vector<std::string> lines;  // reproduction figures and notes
};

/// One workload. The runner calls setup() several times (the last set-up
/// is kept), then round() repeatedly; round 0 is followed by verify() and,
/// on a traced run, by sweep().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t setup_repeats() const = 0;
  virtual void setup(Tracer* tracer) = 0;
  /// Runs one round of the timed operations; returns its timing (check
  /// work excluded) and adds the operations it attempted.
  virtual Timing round(std::uint64_t index, Tracer* tracer, Checks& checks,
                       std::uint64_t& attempted) = 0;
  /// Property and independent-computation checks on round 0's outputs.
  virtual void verify(Checks& checks, Report& report) = 0;
  /// Traced run only: calls into every layer with spans around each call.
  virtual void sweep(Tracer& tracer, Checks& checks, Report& report) = 0;
  /// Releases round 0's outputs once verify() and sweep() are done.
  virtual void release() = 0;
  /// The workload's step metrics (campaign_s, resume_s, ...), from the
  /// samples of every round.
  virtual void summarize(Report& report) const = 0;
};

std::unique_ptr<Workload> make_workload(const Options& options);
std::unique_ptr<Workload> make_traceback(const Options& options);

// --- inputs -----------------------------------------------------------------

/// The 2,659-AS standard testbed (CLI defaults) or the ~67k-AS synthetic
/// Internet, with the benchmark's worker budget.
st::core::TestbedConfig testbed_config(std::uint32_t transit,
                                       std::uint32_t stubs,
                                       std::uint64_t seed,
                                       std::size_t workers);

/// The paper's plan: location, prepending and poisoning phases.
struct Plan {
  std::vector<st::bgp::Configuration> configs;
  std::size_t location = 0;
  std::size_t prepend = 0;
  std::size_t poison = 0;
};
Plan make_plan(const st::core::PeeringTestbed& testbed);

/// Ground-truth properties every campaign must satisfy, plus the matrix,
/// clustering and artifact round-trip checks. `bad_cell_ceiling` is the
/// share of observed matrix cells that may name an unannounced link.
void check_campaign(const st::core::PeeringTestbed& testbed, const Plan& plan,
                    const st::core::DeploymentResult& result,
                    const st::core::DeploymentArtifact& artifact,
                    const std::string& artifact_path,
                    double bad_cell_ceiling, Checks& checks,
                    Report& report);

/// Reproduction figures of a deployment (sources, clusters, singleton
/// share, multi-catchment fraction, agreement with ground truth).
void describe_campaign(const st::core::DeploymentResult& result,
                       const st::core::DeploymentArtifact& artifact,
                       Report& report);

// --- traceback ---------------------------------------------------------------

/// Fig. 8 scheduling: the full greedy schedule and a random ensemble.
struct Schedule {
  st::core::ScheduleTrace greedy;
  st::core::RandomEnsemble ensemble;
};
Schedule run_schedule(const st::measure::CatchmentStore& matrix,
                      std::uint64_t seed, Tracer* tracer);
void check_schedule(const st::measure::CatchmentStore& matrix,
                    const Schedule& schedule, Checks& checks);

/// Attack incidents replayed over the head of the greedy schedule.
struct IncidentContext {
  const st::measure::CatchmentStore* matrix = nullptr;
  const std::vector<st::topology::AsId>* sources = nullptr;
  const std::vector<st::bgp::CatchmentMap>* truth = nullptr;
  std::vector<std::size_t> horizon;  // configurations deployed, in order
  std::size_t link_count = 0;
  std::uint64_t seed = 0;
  /// The matrix is the ground truth, so a lone attacker must be found.
  bool strict = false;
};
struct IncidentOutcome {
  Timing latency;  // deliver + honeypot + clustering + attribution
  std::size_t attackers = 0;
  std::size_t recovered = 0;  // attackers inside an extracted cluster
  std::size_t packets = 0;
  std::size_t components = 0;
};
IncidentOutcome run_incident(const IncidentContext& context,
                             std::uint64_t incident, Tracer* tracer,
                             Checks& checks);
/// The attack horizon: the head of the greedy schedule replayed per
/// incident, 20 configurations as in examples/ddos_localization.cpp.
inline constexpr std::size_t kAttackHorizon = 20;

// --- traced layer sweep ------------------------------------------------------

struct SweepInputs {
  const st::core::PeeringTestbed* testbed = nullptr;
  const Plan* plan = nullptr;
  const st::core::DeploymentResult* result = nullptr;
  const st::core::DeploymentArtifact* artifact = nullptr;
  Timing campaign;  // the deploy -> artifact span the sweep explains
  std::size_t workers = 1;
  std::uint64_t seed = 0;
  std::string workdir;
  double journal_mb = 0.0;
  double journal_files = 0.0;
};
void layer_sweep(const SweepInputs& inputs, Tracer& tracer, Checks& checks,
                 Report& report);

}  // namespace perfbench
