// The traced layer sweep: one call into every layer's public functions on
// the workload's own inputs, each wrapped in a span. It re-composes the
// campaign that PeeringTestbed::deploy runs as one opaque call:
// topology synthesis, campaign planning, propagation (with a counting sink
// and one cold run), the §IV measurement plane call by call (extract ->
// feed -> traceroute -> repair -> inference) and again through
// MeasurementDriver::run, the §IV-d matrix build, artifact I/O, clustering, Fig. 8 scheduling and
// attack incidents. The re-composed measurement must reproduce deploy()'s
// per-configuration inferences and its catchment matrix. The span-dense
// parts (the measurement pass and the incidents) run untraced and traced
// alike; the traced passes' extra wall time is the tracing overhead.
#include <atomic>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "measure/address_plan.hpp"
#include "measure/driver.hpp"
#include "measure/feed.hpp"
#include "measure/inference.hpp"
#include "measure/ip2as.hpp"
#include "measure/ixp_table.hpp"
#include "measure/repair.hpp"
#include "measure/traceroute.hpp"
#include "measure/visibility.hpp"
#include "topology/synth.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kSweepIncidents = 100;

/// The testbed's topology request (PeeringTestbed builds the same one).
st::topology::SynthConfig synth_config(const st::core::TestbedConfig& config) {
  st::topology::SynthConfig synth;
  synth.seed = config.seed;
  synth.tier1_count = config.tier1_count;
  synth.transit_count = config.transit_count;
  synth.stub_count = config.stub_count;
  synth.transit_extra_providers = config.transit_extra_providers;
  synth.stub_extra_providers = config.stub_extra_providers;
  synth.transit_peering_prob = config.transit_peering_prob;
  synth.stub_tier1_provider_prob = config.stub_tier1_provider_prob;
  synth.reserved_attract_bonus = config.provider_attract_bonus;
  synth.reserved_position_fraction = config.provider_position_fraction;
  synth.origin_asn = st::core::kPeeringAsn;
  for (const st::core::MuxInfo& mux : st::core::table1_muxes()) {
    synth.reserved_transit_asns.push_back(mux.provider_asn);
  }
  return synth;
}

/// The measurement plane wired as PeeringTestbed wires its own (component
/// seeds salted with the testbed seed), built from public types.
struct MeasurePlane {
  explicit MeasurePlane(const st::core::PeeringTestbed& testbed)
      : config(testbed.config()),
        graph(testbed.graph()),
        plan(graph),
        ixps(graph, config.ixp_count, config.ixp_edge_fraction,
             st::util::hash_combine(config.seed, 0x1A9)),
        ip2as(st::measure::Ip2AsMap::from_plan(
            graph, plan, st::core::kPeeringAsn,
            {config.ip2as.missing_fraction,
             st::util::hash_combine(config.seed, config.ip2as.seed)})),
        feeds(graph, {config.feed.peer_count, config.feed.large_cone_bias,
                      st::util::hash_combine(config.seed, config.feed.seed)}),
        tracer(graph, plan, ixps, salted(config.traceroute, config.seed)),
        repair(graph, ip2as, ixps, st::core::kPeeringAsn),
        inference(graph, testbed.origin()),
        injector(salted(config.faults, config.seed)) {
    tracer.set_fault_injector(&injector);
  }
  MeasurePlane(const MeasurePlane&) = delete;
  MeasurePlane& operator=(const MeasurePlane&) = delete;

  template <typename Options>
  static Options salted(Options options, std::uint64_t seed) {
    options.seed = st::util::hash_combine(seed, options.seed);
    return options;
  }

  st::core::TestbedConfig config;
  const st::topology::AsGraph& graph;
  st::measure::AddressPlan plan;
  st::measure::IxpTable ixps;
  st::measure::Ip2AsMap ip2as;
  st::measure::FeedSimulator feeds;
  st::measure::TracerouteSim tracer;
  st::measure::PathRepair repair;
  st::measure::CatchmentInference inference;
  st::fault::FaultInjector injector;
};

std::uint64_t digest(const st::measure::InferenceResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  mix(result.catchments.link_of.data(),
      result.catchments.link_of.size() * sizeof(st::bgp::LinkId));
  mix(result.observed.data(), result.observed.size());
  mix(&result.covered_count, sizeof(result.covered_count));
  mix(&result.multi_catchment_fraction, sizeof(double));
  return h;
}

double span_cpu(const Tracer& tracer, const std::string& name) {
  double cpu = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.name == name) cpu += span.cpu;
  }
  return cpu;
}

double median_ms(const std::map<std::int64_t, double>& per_incident) {
  std::vector<double> values;
  for (const auto& [incident, seconds] : per_incident) {
    values.push_back(seconds * 1e3);
  }
  return values.empty() ? 0.0 : median(values);
}

/// Wall time of the sweep's untraced and traced passes.
struct Passes {
  double untraced_s = 0.0;
  double traced_s = 0.0;

  template <typename Pass>
  auto untraced(const Pass& pass) {
    return timed(pass, nullptr, untraced_s);
  }
  template <typename Pass>
  auto traced(const Pass& pass, Tracer& tracer) {
    return timed(pass, &tracer, traced_s);
  }
  /// Traced minus untraced time of one traced run of every part; each part
  /// runs twice untraced and twice traced.
  double overhead_s() const noexcept { return (traced_s - untraced_s) / 2.0; }

 private:
  template <typename Pass>
  static auto timed(const Pass& pass, Tracer* tracer, double& sum) {
    const Stopwatch watch;
    auto out = pass(tracer);
    sum += watch.elapsed().wall;
    return out;
  }
};

struct IncidentTotals {
  double packets = 0.0;
  double components = 0.0;
  std::size_t attackers = 0;
  std::size_t recovered = 0;
};

/// What one call-by-call pass of the measurement plane produced.
struct Recomposed {
  std::vector<st::measure::MeasurementTask> tasks;  // driver inputs
  std::vector<std::uint64_t> digests;               // per configuration
  std::size_t mismatches = 0;  // inferences that differ from deploy()'s
  std::size_t traces = 0;
};

/// Propagates the campaign and, in the sink, runs extract -> feed ->
/// traceroute -> repair -> inference for every configuration not skipped,
/// with a span around each call when `t` is set.
Recomposed recompose(const st::core::PeeringTestbed& testbed,
                     const MeasurePlane& plane,
                     const std::vector<st::bgp::Configuration>& configs,
                     const std::vector<char>& skip,
                     const st::core::DeploymentResult& result,
                     const st::core::CampaignRunnerOptions& runner,
                     Tracer* t) {
  const std::size_t n = configs.size();
  const auto& probes = testbed.probe_ases();
  const std::uint32_t rounds = testbed.config().traceroute_rounds;
  const bool feed_faults = plane.config.faults.any_feed();
  const bool compare = result.measured.size() == n;
  std::vector<st::measure::MeasurementDriver::Scratch> scratch(
      st::core::campaign_chain_count(n, runner));
  Recomposed out;
  out.tasks.resize(n);
  out.digests.assign(n, 0);
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> traces{0};
  {
    const Scope recompose(t, "measure.recompose");
    const std::int64_t parent = recompose.id();
    st::core::propagate_campaign(
        testbed.engine(), testbed.origin(), configs,
        [&](std::size_t chain, std::size_t i,
            const st::bgp::RoutingOutcome& outcome) {
          if (skip[i]) return;
          auto& s = scratch[chain];
          std::shared_ptr<const st::measure::ProbePathSet> paths;
          {
            const Scope scope(t, "measure.extract", -1, parent);
            paths = std::make_shared<const st::measure::ProbePathSet>(
                st::measure::ProbePathSet::extract(outcome, probes,
                                                   testbed.origin_id()));
          }
          std::shared_ptr<const std::vector<st::measure::FeedEntry>> feeds;
          std::uint32_t faulted = 0;
          {
            const Scope scope(t, "measure.feed", -1, parent);
            auto collected = plane.feeds.collect(outcome);
            if (feed_faults) {
              collected = st::measure::FeedSimulator::degrade(
                  collected, plane.injector, i, testbed.origin().asn,
                  &faulted);
            }
            feeds = std::make_shared<const std::vector<st::measure::FeedEntry>>(
                std::move(collected));
          }
          {
            const Scope scope(t, "measure.traceroute", -1, parent);
            s.traces.resize(probes.size() * rounds);
            std::size_t k = 0;
            for (std::size_t p = 0; p < probes.size(); ++p) {
              for (std::uint32_t r = 0; r < rounds; ++r) {
                plane.tracer.run_on_path(paths->path(p), probes[p],
                                         testbed.origin_id(),
                                         st::util::hash_combine(i, r),
                                         s.traces[k++]);
              }
            }
          }
          traces.fetch_add(s.traces.size(), std::memory_order_relaxed);
          {
            const Scope scope(t, "measure.repair", -1, parent);
            plane.repair.repair(s.traces, *feeds, s.repair, s.repaired);
          }
          st::measure::InferenceResult inferred;
          {
            const Scope scope(t, "measure.inference", -1, parent);
            inferred = plane.inference.infer(*feeds, s.repaired, s.inference);
          }
          out.digests[i] = digest(inferred);
          if (compare && !(inferred == result.measured[i])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          out.tasks[i] = {i, feeds, paths, faulted};
        },
        runner);
  }
  out.mismatches = mismatches.load();
  out.traces = traces.load();
  return out;
}

}  // namespace

void layer_sweep(const SweepInputs& in, Tracer& tracer, Checks& checks,
                 Report& report) {
  Tracer* t = &tracer;
  Metrics& layers = report.layers;
  const st::core::PeeringTestbed& testbed = *in.testbed;
  const st::core::DeploymentResult& result = *in.result;
  const st::core::DeploymentArtifact& artifact = *in.artifact;
  const auto& configs = in.plan->configs;
  const std::size_t n = configs.size();

  // topology
  {
    st::topology::SynthTopology topology;
    {
      const Scope scope(t, "topology.synthesize");
      topology = st::topology::synthesize(synth_config(testbed.config()));
    }
    checks.expect(topology.graph.size() == testbed.graph().size(),
                  "standalone synthesis rebuilds the testbed's topology");
  }
  layers.set("topology.synthesize_s", tracer.total("topology.synthesize"), "s");

  // experiment
  double truth_bytes = 0.0;
  for (const auto& map : result.truth) {
    truth_bytes += static_cast<double>(map.link_of.size() *
                                       sizeof(st::bgp::LinkId));
  }
  layers.set("experiment.truth_mb", truth_bytes / 1e6, "MB");
  layers.set("experiment.cpu_utilisation",
             in.campaign.cpu /
                 (in.campaign.wall * static_cast<double>(in.workers)),
             "ratio");

  // campaign + bgp
  st::core::CampaignRunnerOptions runner;
  runner.warm_start = testbed.config().warm_campaign;
  {
    const Scope scope(t, "campaign.plan");
    const st::core::CampaignPlan plan = st::core::plan_campaign(configs, runner);
    checks.expect(!plan.unique.empty() && plan.chains() > 0,
                  "the campaign plan has unique configurations and chains");
  }
  std::atomic<std::size_t> delivered{0};
  st::core::CampaignRunStats stats;
  {
    const Scope scope(t, "bgp.propagate");
    stats = st::core::propagate_campaign(
        testbed.engine(), testbed.origin(), configs,
        [&](std::size_t, std::size_t, const st::bgp::RoutingOutcome&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        },
        runner);
  }
  checks.expect(delivered.load() == n && stats.configs == n,
                "propagation delivers one outcome per configuration");
  layers.set("campaign.plan_s", tracer.total("campaign.plan"), "s");
  layers.set("campaign.unique_configs",
             static_cast<double>(stats.unique_configs), "count");
  layers.set("campaign.cold_runs", static_cast<double>(stats.cold_runs),
             "count");
  layers.set("campaign.warm_runs", static_cast<double>(stats.warm_runs),
             "count");
  layers.set("bgp.propagate_s", tracer.total("bgp.propagate"), "s");
  layers.set("bgp.propagate_cpu_s", span_cpu(tracer, "bgp.propagate"), "s");
  layers.set("bgp.rounds", static_cast<double>(stats.total_rounds), "count");

  // configs[0] announces on every link (location phase, no removals).
  for (int k = 0; k < 3; ++k) {
    const Scope scope(t, "bgp.cold_run");
    const st::bgp::RoutingOutcome outcome =
        testbed.engine().run(testbed.origin(), configs[0]);
    checks.expect(outcome.converged, "a cold run with every link converges");
  }
  layers.set("bgp.cold_run_ms", median(tracer.durations("bgp.cold_run")) * 1e3,
             "ms");

  // measure: the §IV plane call by call, inside a propagation sink. The
  // pass runs four times, untraced, traced, traced, untraced: the order
  // cancels a steady drift and the first pass's warm-up. The second traced
  // pass feeds the layer table; the first records into a throwaway tracer.
  const MeasurePlane plane(testbed);
  std::vector<char> skip(n, 0);
  for (std::size_t i = 0; i < result.quality.size(); ++i) {
    skip[i] = result.quality[i].grade == st::fault::Grade::kFailed;
  }
  const bool compare = result.measured.size() == n;
  Tracer throwaway;
  Passes passes;
  const auto measure = [&](Tracer* spans) {
    return recompose(testbed, plane, configs, skip, result, runner, spans);
  };
  const Recomposed untraced = passes.untraced(measure);
  passes.traced(measure, throwaway);
  Recomposed traced = passes.traced(measure, tracer);
  passes.untraced(measure);
  const Passes measure_passes = passes;
  checks.expect(traced.digests == untraced.digests,
                "tracing does not change the re-composed inferences");
  if (compare) {
    checks.expect(traced.mismatches == 0,
                  "re-composed measurement reproduces deploy()'s inferences (" +
                      std::to_string(traced.mismatches) + " of " +
                      std::to_string(n) + " differ)");
  }
  const auto& probes = testbed.probe_ases();
  const std::uint32_t rounds = testbed.config().traceroute_rounds;
  auto& tasks = traced.tasks;
  const auto& digests = traced.digests;
  {
    std::vector<st::measure::MeasurementTask> live;
    std::vector<std::size_t> live_index;
    for (std::size_t i = 0; i < n; ++i) {
      if (skip[i]) continue;
      live.push_back(std::move(tasks[i]));
      live_index.push_back(i);
    }
    st::measure::MeasurementDriverOptions options;
    options.workers = in.workers;
    options.traceroute_rounds = rounds;
    const st::measure::MeasurementDriver driver(
        plane.tracer, plane.repair, plane.inference, probes,
        testbed.origin_id(), options);
    std::vector<st::measure::InferenceResult> driven;
    {
      const Scope scope(t, "measure.driver");
      driven = driver.run(live);
    }
    std::size_t differ = 0;
    for (std::size_t k = 0; k < live.size(); ++k) {
      differ += digest(driven[k]) != digests[live_index[k]];
    }
    checks.expect(differ == 0,
                  "MeasurementDriver::run matches the call-by-call "
                  "composition");

    // §IV-d: the source baseline and the imputed matrix, from the driven
    // inferences; abandoned configurations observe nothing.
    std::vector<st::measure::InferenceResult> per_config(n);
    for (std::size_t i = 0; i < n; ++i) {
      per_config[i].catchments.link_of.assign(testbed.graph().size(),
                                              st::bgp::kNoCatchment);
      per_config[i].observed.assign(testbed.graph().size(), 0);
    }
    for (std::size_t k = 0; k < live.size(); ++k) {
      per_config[live_index[k]] = std::move(driven[k]);
    }
    driven.clear();
    st::measure::CatchmentStore matrix;
    {
      const Scope scope(t, "measure.build_matrix");
      const auto sources = live_index.empty()
                               ? std::vector<st::topology::AsId>{}
                               : st::measure::baseline_sources(
                                     per_config[live_index.front()]);
      matrix = st::measure::build_matrix(per_config, sources);
    }
    if (compare) {
      checks.expect(matrix == artifact.matrix,
                    "re-composed catchment matrix equals deploy()'s");
    }
  }
  for (const char* name : {"extract", "feed", "traceroute", "repair",
                           "inference", "driver", "build_matrix"}) {
    const std::string span = std::string("measure.") + name;
    layers.set(span + "_s", tracer.total(span), "s");
  }
  layers.set("measure.traces", static_cast<double>(traced.traces), "count");
  layers.set("measure.matrix_mb",
             static_cast<double>(artifact.matrix.size_bytes()) / 1e6, "MB");

  // io
  const std::string path = (fs::path(in.workdir) / "sweep.artifact").string();
  {
    const Scope scope(t, "io.save");
    st::core::save_artifact_file(artifact, path);
  }
  st::core::DeploymentArtifact loaded;
  {
    const Scope scope(t, "io.load");
    loaded = st::core::load_artifact_file(path);
  }
  checks.expect(loaded == artifact, "sweep artifact round-trips unchanged");
  layers.set("io.save_s", tracer.total("io.save"), "s");
  layers.set("io.load_s", tracer.total("io.load"), "s");
  layers.set("io.artifact_mb", static_cast<double>(fs::file_size(path)) / 1e6,
             "MB");

  // journal + fault (zero unless the workload journals under a fault plan)
  layers.set("journal.mb", in.journal_mb, "MB");
  layers.set("journal.files", in.journal_files, "count");
  double degraded = 0.0;
  double failed = 0.0;
  for (const auto& quality : result.quality) {
    degraded += quality.grade == st::fault::Grade::kDegraded;
    failed += quality.grade == st::fault::Grade::kFailed;
  }
  layers.set("fault.degraded_configs", degraded, "count");
  layers.set("fault.failed_configs", failed, "count");

  // cluster + scheduler
  st::core::Clustering clustering;
  {
    const Scope scope(t, "cluster.refine");
    clustering = st::core::cluster_sources(artifact.matrix);
  }
  layers.set("cluster.refine_s", tracer.total("cluster.refine"), "s");
  layers.set("cluster.count", clustering.cluster_count, "count");
  const Schedule schedule = run_schedule(artifact.matrix, in.seed, t);
  layers.set("scheduler.greedy_s", tracer.total("scheduler.greedy"), "s");
  layers.set("scheduler.random_ensemble_s",
             tracer.total("scheduler.random_ensemble"), "s");

  // traffic + attribution: incidents over this workload's matrix.
  IncidentContext context;
  context.matrix = &artifact.matrix;
  context.sources = &artifact.sources;
  context.truth = &result.truth;
  context.link_count = testbed.origin().links.size();
  context.seed = st::util::hash_combine(in.seed, 0x5EE9);
  context.strict = result.measured.empty();
  const std::size_t horizon =
      std::min(kAttackHorizon, schedule.greedy.order.size());
  context.horizon.assign(schedule.greedy.order.begin(),
                         schedule.greedy.order.begin() + horizon);
  // Incidents in the same untraced/traced order as the measurement pass.
  const auto incidents = [&](Tracer* spans) {
    IncidentTotals totals;
    for (std::size_t k = 0; k < kSweepIncidents; ++k) {
      const IncidentOutcome outcome = run_incident(context, k, spans, checks);
      totals.packets += static_cast<double>(outcome.packets);
      totals.components += static_cast<double>(outcome.components);
      totals.attackers += outcome.attackers;
      totals.recovered += outcome.recovered;
    }
    return totals;
  };
  passes.untraced(incidents);
  passes.traced(incidents, throwaway);
  const IncidentTotals totals = passes.traced(incidents, tracer);
  passes.untraced(incidents);
  layers.set("trace.overhead_s", passes.overhead_s(), "s");
  report.lines.push_back(
      "tracing overhead: " + std::to_string(passes.overhead_s()) +
      " s over the sweep's measurement pass and incidents (measurement "
      "pass " +
      std::to_string(measure_passes.untraced_s / 2.0) + " s untraced, " +
      std::to_string(measure_passes.traced_s / 2.0) + " s traced)");
  layers.set("traffic.deliver_ms",
             median_ms(tracer.per_incident("traffic.deliver")), "ms");
  layers.set("traffic.honeypot_ms",
             median_ms(tracer.per_incident("traffic.honeypot")), "ms");
  layers.set("traffic.packets", totals.packets, "count");
  layers.set("attribution.mixture_ms",
             median_ms(tracer.per_incident("attribution.mixture")), "ms");
  layers.set("attribution.components", totals.components, "count");
  report.lines.push_back(
      "repro: attacker recovery " + std::to_string(totals.recovered) + "/" +
      std::to_string(totals.attackers) + " over " +
      std::to_string(kSweepIncidents) +
      " incidents replayed on this workload's matrix, horizon " +
      std::to_string(horizon) + " configurations");
}

}  // namespace perfbench
