// traceback-2k7: the analyse-often side. Set-up deploys the 2.7k testbed
// with ground-truth catchments, saves the artifact and loads it back; each
// round runs Fig. 8 scheduling (full greedy schedule and a random ensemble)
// and then a closed loop of attack incidents, each replayed as packets over
// the head of the greedy schedule and attributed to clusters.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <unordered_set>

#include "bench.hpp"
#include "bgp/catchment.hpp"
#include "core/attribution.hpp"
#include "traffic/honeypot.hpp"
#include "traffic/spoofer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Random schedules in the Fig. 8 ensemble: the repository's Fig. 8
/// default (`BenchOptions::sequences`, bench/common.hpp).
constexpr std::size_t kEnsembleSequences = 300;
/// Incidents per round: one closed loop, each incident starting when the
/// previous one has been attributed. No source gives a figure; 400 keeps
/// the incidents near half of a round, next to the schedule.
constexpr std::size_t kIncidentsPerRound = 400;
/// Packets per second of the slowest attacker; attacker k of an incident
/// sends k times this (examples/ddos_localization.cpp).
constexpr double kAttackPps = 80.0;

bool non_increasing(const std::vector<double>& values) {
  for (std::size_t k = 1; k < values.size(); ++k) {
    if (values[k] > values[k - 1]) return false;
  }
  return true;
}

class TracebackWorkload final : public Workload {
 public:
  explicit TracebackWorkload(const Options& options)
      : options_(options),
        artifact_path_(
            (fs::path(options.workdir) / "truth.artifact").string()) {}

  std::size_t setup_repeats() const override { return 7; }

  void setup(Tracer* tracer) override {
    const Scope scope(tracer, "setup");
    testbed_.reset();
    result_ = {};
    st::core::TestbedConfig config =
        testbed_config(150, 2500, options_.seed, options_.workers);
    config.measured_catchments = false;
    {
      const Scope construct(tracer, "testbed.construct");
      testbed_ = std::make_unique<st::core::PeeringTestbed>(config);
    }
    {
      const Scope generate(tracer, "campaign.generate");
      plan_ = make_plan(*testbed_);
    }
    const Stopwatch watch;
    {
      const Scope campaign(tracer, "campaign.ground_truth");
      {
        const Scope deploy(tracer, "experiment.deploy");
        result_ = testbed_->deploy(plan_.configs);
      }
      const Scope save(tracer, "io.save");
      saved_ = st::core::make_artifact(result_, options_.seed,
                                       testbed_->graph().size(),
                                       testbed_->origin().links.size());
      st::core::save_artifact_file(saved_, artifact_path_);
    }
    campaign_ = watch.elapsed();
    const Scope load(tracer, "io.load");
    artifact_ = st::core::load_artifact_file(artifact_path_);
  }

  Timing round(std::uint64_t index, Tracer* tracer, Checks& checks,
               std::uint64_t& attempted) override {
    const Stopwatch watch;
    Schedule schedule = run_schedule(
        artifact_.matrix, st::util::hash_combine(options_.seed, index),
        tracer);
    Timing total = watch.elapsed();
    schedule_.push_back(total.wall);
    ++attempted;

    IncidentContext context;
    context.matrix = &artifact_.matrix;
    context.sources = &artifact_.sources;
    context.truth = &result_.truth;
    context.link_count = testbed_->origin().links.size();
    context.seed = options_.seed;
    context.strict = true;
    const std::size_t horizon =
        std::min(kAttackHorizon, schedule.greedy.order.size());
    context.horizon.assign(schedule.greedy.order.begin(),
                           schedule.greedy.order.begin() + horizon);
    for (std::size_t k = 0; k < kIncidentsPerRound; ++k) {
      const IncidentOutcome outcome = run_incident(
          context, index * kIncidentsPerRound + k, tracer, checks);
      incident_ms_.push_back(outcome.latency.wall * 1e3);
      total.wall += outcome.latency.wall;
      total.cpu += outcome.latency.cpu;
      attackers_ += outcome.attackers;
      recovered_ += outcome.recovered;
      ++attempted;
    }
    if (index == 0) first_schedule_ = std::move(schedule);
    return total;
  }

  void verify(Checks& checks, Report& report) override {
    checks.expect(artifact_ == saved_,
                  "ground-truth artifact survives a save and load unchanged");
    check_campaign(*testbed_, plan_, result_, artifact_, artifact_path_,
                   0.0, checks, report);
    check_schedule(artifact_.matrix, first_schedule_, checks);
    describe_campaign(result_, artifact_, report);
  }

  void sweep(Tracer& tracer, Checks& checks, Report& report) override {
    SweepInputs inputs;
    inputs.testbed = testbed_.get();
    inputs.plan = &plan_;
    inputs.result = &result_;
    inputs.artifact = &artifact_;
    inputs.campaign = campaign_;
    inputs.workers = options_.workers;
    inputs.seed = options_.seed;
    inputs.workdir = options_.workdir;
    layer_sweep(inputs, tracer, checks, report);
  }

  // Incidents need the ground truth in every round; only the schedule of
  // round 0 goes.
  void release() override { first_schedule_ = {}; }

  void summarize(Report& report) const override {
    report.named.set("schedule_s", median(schedule_), "s");
    report.named.set("traceback_p50_ms", percentile(incident_ms_, 50.0), "ms");
    report.named.set("traceback_p99_ms", percentile(incident_ms_, 99.0), "ms");
    report.named.set("incidents", static_cast<double>(incident_ms_.size()),
                     "count");
    report.named.set("attacker_recovery",
                     attackers_ == 0 ? 0.0
                                     : static_cast<double>(recovered_) /
                                           static_cast<double>(attackers_),
                     "ratio");
  }

 private:
  Options options_;
  std::string artifact_path_;
  std::unique_ptr<st::core::PeeringTestbed> testbed_;
  Plan plan_;
  st::core::DeploymentResult result_;
  st::core::DeploymentArtifact saved_;
  st::core::DeploymentArtifact artifact_;
  Timing campaign_;
  Schedule first_schedule_;
  std::vector<double> schedule_;
  std::vector<double> incident_ms_;
  std::size_t attackers_ = 0;
  std::size_t recovered_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_traceback(const Options& options) {
  return std::make_unique<TracebackWorkload>(options);
}

Schedule run_schedule(const st::measure::CatchmentStore& matrix,
                      std::uint64_t seed, Tracer* tracer) {
  const Scope scope(tracer, "schedule");
  Schedule schedule;
  {
    const Scope greedy(tracer, "scheduler.greedy");
    schedule.greedy = st::core::greedy_schedule(matrix, 0);
  }
  const Scope ensemble(tracer, "scheduler.random_ensemble");
  schedule.ensemble =
      st::core::random_ensemble(matrix, kEnsembleSequences, seed);
  return schedule;
}

void check_schedule(const st::measure::CatchmentStore& matrix,
                    const Schedule& schedule, Checks& checks) {
  const auto& trajectory = schedule.greedy.mean_cluster_size;
  checks.expect(trajectory.size() == matrix.configs() &&
                    schedule.greedy.order.size() == matrix.configs(),
                "the greedy schedule deploys every configuration");
  if (trajectory.empty()) return;
  checks.expect(non_increasing(trajectory),
                "the greedy trajectory never increases");
  const double full = st::core::cluster_sources(matrix).mean_size();
  checks.expect(std::abs(trajectory.back() - full) <= 1e-12 * full,
                "the greedy trajectory ends at the full clustering's mean "
                "size");
  // Brute force over single-row partitions: a row with d distinct cells
  // splits the sources into d clusters.
  double best = 0.0;
  for (std::size_t i = 0; i < matrix.configs(); ++i) {
    std::unordered_set<std::uint8_t> distinct(matrix.row(i).begin(),
                                              matrix.row(i).end());
    const double mean = static_cast<double>(matrix.sources()) /
                        static_cast<double>(std::max<std::size_t>(1, distinct.size()));
    best = i == 0 ? mean : std::min(best, mean);
  }
  checks.expect(std::abs(trajectory.front() - best) <= 1e-12 * best,
                "the greedy first step equals the brute-force best single "
                "row");
  checks.expect(non_increasing(schedule.ensemble.p25) &&
                    non_increasing(schedule.ensemble.p50) &&
                    non_increasing(schedule.ensemble.p75),
                "every random-ensemble percentile never increases");
}

IncidentOutcome run_incident(const IncidentContext& context,
                             std::uint64_t incident, Tracer* tracer,
                             Checks& checks) {
  const auto& matrix = *context.matrix;
  const auto& sources = *context.sources;
  const auto& truth = *context.truth;
  IncidentOutcome outcome;
  if (sources.empty() || context.horizon.empty()) return outcome;

  // One to three attackers, equally likely: three is the example's attack
  // (examples/ddos_localization.cpp), one the single source the paper
  // traces; the uniform mix is an assumption. The attackers send at the
  // example's distinct rates 80, 160 and 240 pps (equal rates are a
  // degenerate tie for any volume decomposition), in an order the seed
  // draws.
  st::util::Rng rng{st::util::hash_combine(context.seed, incident)};
  const std::size_t count =
      std::min<std::size_t>(1 + rng.next_below(3), sources.size());
  std::vector<std::size_t> attackers;
  while (attackers.size() < count) {
    const std::size_t s = rng.next_below(sources.size());
    if (std::find(attackers.begin(), attackers.end(), s) == attackers.end()) {
      attackers.push_back(s);
    }
  }
  std::vector<double> rates;
  for (std::size_t i = 0; i < count; ++i) {
    rates.push_back(kAttackPps * static_cast<double>(i + 1));
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(rates[i - 1], rates[rng.next_below(i)]);
  }
  std::vector<st::traffic::SpoofedFlow> flows;
  for (std::size_t i = 0; i < attackers.size(); ++i) {
    st::traffic::SpoofedFlow flow;
    flow.source_as = sources[attackers[i]];
    flow.victim = st::netcore::Ipv4Addr{198, 51, 100, 9};
    flow.protocol = st::traffic::AmpProtocol::kNtpMonlist;
    flow.packets_per_second = rates[i];
    flows.push_back(flow);
  }
  st::traffic::SpoofedTrafficGenerator generator(
      st::util::hash_combine(context.seed, ~incident));

  std::vector<std::vector<st::traffic::ArrivedPacket>> delivered;
  std::vector<std::uint64_t> counted;
  std::vector<std::vector<double>> observed;
  st::measure::CatchmentStore rows;
  st::core::Clustering clustering;
  st::core::MixtureResult mixture;
  // Each deployed configuration sees one second of traffic, at most 400
  // packets per flow, as in examples/ddos_localization.cpp.
  const Stopwatch watch;
  {
    const Scope scope(tracer, "incident", static_cast<std::int64_t>(incident));
    for (const std::size_t step : context.horizon) {
      std::vector<st::traffic::ArrivedPacket> arrivals;
      {
        const Scope deliver(tracer, "traffic.deliver",
                            static_cast<std::int64_t>(incident));
        arrivals = generator.deliver(flows, truth[step], 1.0, 400);
      }
      {
        const Scope honeypot(tracer, "traffic.honeypot",
                             static_cast<std::int64_t>(incident));
        st::traffic::AmpPotHoneypot pot(context.link_count);
        for (const auto& arrived : arrivals) {
          pot.receive(arrived.link, arrived.datagram, arrived.timestamp);
        }
        counted.push_back(pot.total_packets());
        observed.push_back(pot.volume_by_link());
      }
      rows.append_row(matrix.row(step));
      delivered.push_back(std::move(arrivals));
    }
    {
      const Scope refine(tracer, "cluster.refine",
                         static_cast<std::int64_t>(incident));
      clustering = st::core::cluster_sources(rows);
    }
    const Scope attribute(tracer, "attribution.mixture",
                          static_cast<std::int64_t>(incident));
    mixture = st::core::attribute_mixture(rows, clustering, observed);
  }
  outcome.latency = watch.elapsed();

  // Checks, outside the timed part.
  bool links_match = true;
  bool counts_match = true;
  for (std::size_t k = 0; k < context.horizon.size(); ++k) {
    const std::size_t step = context.horizon[k];
    for (const auto& arrived : delivered[k]) {
      links_match &= arrived.link == truth[step].link_of[arrived.true_source];
    }
    counts_match &= counted[k] == delivered[k].size();
    outcome.packets += delivered[k].size();
  }
  const std::string id = "incident " + std::to_string(incident);
  checks.expect(links_match, id + ": every packet arrives on its true "
                                  "source's ground-truth catchment");
  checks.expect(counts_match,
                id + ": the honeypot counts exactly the packets delivered");
  double explained = mixture.residual_fraction;
  for (const auto& component : mixture.components) explained += component.weight;
  checks.expect(std::abs(explained - 1.0) <= 1e-9,
                id + ": component weights plus residual sum to 1");

  outcome.attackers = attackers.size();
  outcome.components = mixture.components.size();
  for (const std::size_t s : attackers) {
    for (const auto& component : mixture.components) {
      if (clustering.cluster_of[s] == component.cluster) {
        ++outcome.recovered;
        break;
      }
    }
  }
  if (context.strict && attackers.size() == 1) {
    bool complete = true;
    for (std::size_t k = 0; k < rows.configs(); ++k) {
      complete &= rows.cell(k, attackers[0]) != st::bgp::kNoCatchment8;
    }
    if (complete) {
      checks.expect(!mixture.components.empty() &&
                        mixture.components[0].cluster ==
                            clustering.cluster_of[attackers[0]] &&
                        std::abs(mixture.components[0].weight - 1.0) <= 1e-9,
                    id + ": a lone attacker's cluster comes first with "
                         "weight 1");
    }
  }
  return outcome;
}

}  // namespace perfbench
