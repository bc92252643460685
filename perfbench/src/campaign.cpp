// Campaign workloads: the 705-configuration plan deployed on the 2.7k-AS
// standard testbed, on the ~67k-AS synthetic Internet, and on the 2.7k
// testbed with an active fault plan, the crash-consistent journal and a
// resume from that journal.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "bgp/catchment.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t announced_mask(const st::bgp::Configuration& config) {
  std::uint64_t mask = 0;
  for (const st::bgp::AnnouncementSpec& spec : config.announcements) {
    mask |= std::uint64_t{1} << spec.link;
  }
  return mask;
}

// Ceilings on the share of observed matrix cells that name an unannounced
// link (see check_campaign). 5% is about twice the largest share over 50
// seeds of the 2.7k campaigns (2.6%); 0.25% is about three times the
// largest over 38 seeds at 67k (0.087%).
constexpr double kCeiling2k7 = 0.05;
constexpr double kCeiling67k = 0.0025;

/// The standard testbed's seed (the CLI and bench default).
constexpr std::uint64_t kStandardSeed = 42;

std::string fmt(double value, int precision = 4) {
  std::ostringstream out;
  out.precision(precision);
  out << value;
  return out.str();
}

// The journal workload's fault plan: every measurement-plane site fires
// at 2% (so some configurations cross the 5% degradation thresholds and
// some do not), and deployments fail often enough that the retry budget
// runs out for a few percent of the configurations (0.3^3 = 2.7%).
void add_journal_faults(st::fault::FaultPlan& plan) {
  plan.feed_outage_prob = 0.02;
  plan.feed_stale_prob = 0.02;
  plan.traceroute_loss_prob = 0.02;
  plan.traceroute_truncate_prob = 0.02;
  plan.deploy_failure_prob = 0.3;
  plan.deploy_retry_budget = 2;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const Options& options, std::uint32_t transit,
                   std::uint32_t stubs, bool journal, double bad_cell_ceiling)
      : options_(options), transit_(transit), stubs_(stubs),
        journal_(journal), bad_cell_ceiling_(bad_cell_ceiling),
        artifact_path_((fs::path(options.workdir) / "campaign.artifact")
                           .string()),
        resume_path_((fs::path(options.workdir) / "resume.artifact")
                         .string()),
        journal_dir_((fs::path(options.workdir) / "journal").string()) {}

  // Synthesizing the 67k-AS Internet takes seconds, so it gets three
  // set-ups; the 2.7k testbed builds in milliseconds and gets 21.
  std::size_t setup_repeats() const override { return stubs_ > 10000 ? 3 : 21; }

  void setup(Tracer* tracer) override {
    const Scope scope(tracer, "setup");
    testbed_.reset();
    resume_testbed_.reset();
    st::core::TestbedConfig config =
        testbed_config(transit_, stubs_, options_.seed, options_.workers);
    if (journal_) {
      add_journal_faults(config.faults);
      config.journal.dir = journal_dir_;
    }
    {
      const Scope construct(tracer, "testbed.construct");
      testbed_ = std::make_unique<st::core::PeeringTestbed>(config);
    }
    if (journal_) {
      config.journal.resume = true;
      const Scope construct(tracer, "testbed.construct");
      resume_testbed_ = std::make_unique<st::core::PeeringTestbed>(config);
    }
    const Scope generate(tracer, "campaign.generate");
    plan_ = make_plan(*testbed_);
  }

  Timing round(std::uint64_t index, Tracer* tracer, Checks& checks,
               std::uint64_t& attempted) override {
    st::core::DeploymentResult result;
    st::core::DeploymentArtifact artifact;
    const Stopwatch watch;
    {
      const Scope scope(tracer, journal_ ? "campaign.journaled" : "campaign");
      {
        const Scope deploy(tracer, "experiment.deploy");
        result = testbed_->deploy(plan_.configs);
      }
      const Scope save(tracer, "io.save");
      artifact = make(result);
      st::core::save_artifact_file(artifact, artifact_path_);
    }
    const Timing campaign = watch.elapsed();
    campaign_.push_back(campaign);
    ++attempted;
    Timing total = campaign;

    if (journal_) {
      if (index == 0) {
        for (const auto& entry : fs::directory_iterator(journal_dir_)) {
          journal_files_ += 1.0;
          journal_mb_ += static_cast<double>(entry.file_size()) / 1e6;
        }
      }
      const Stopwatch resume_watch;
      std::uint64_t resumed = 0;
      {
        const Scope scope(tracer, "resume");
        st::core::DeploymentResult again;
        {
          const Scope deploy(tracer, "experiment.deploy");
          again = resume_testbed_->deploy(plan_.configs);
        }
        resumed = again.resumed_configs;
        const Scope save(tracer, "io.save");
        st::core::save_artifact_file(make(again), resume_path_);
      }
      const Timing resume = resume_watch.elapsed();
      resume_.push_back(resume);
      ++attempted;
      total.wall += resume.wall;
      total.cpu += resume.cpu;
      checks.expect(resumed == plan_.configs.size(),
                    "resume skipped every journaled configuration (" +
                        std::to_string(resumed) + " of " +
                        std::to_string(plan_.configs.size()) + ")");
      checks.expect(read_file(resume_path_) == read_file(artifact_path_),
                    "resumed artifact is byte-identical to the journaled "
                    "run's artifact");
    }

    // Every round must produce the same bytes as round 0.
    const std::string bytes = read_file(artifact_path_);
    if (index == 0) {
      first_bytes_ = bytes;
      result_ = std::move(result);
      artifact_ = std::move(artifact);
      first_campaign_ = campaign;
    } else {
      checks.expect(bytes == first_bytes_,
                    "round " + std::to_string(index) +
                        " artifact is byte-identical to round 0's");
    }
    return total;
  }

  void verify(Checks& checks, Report& report) override {
    check_campaign(*testbed_, plan_, result_, artifact_, artifact_path_,
                   bad_cell_ceiling_, checks, report);
    if (journal_) {
      std::size_t abandoned = 0;
      std::size_t degraded = 0;
      for (std::size_t i = 0; i < result_.quality.size(); ++i) {
        degraded += result_.quality[i].grade == st::fault::Grade::kDegraded;
        if (result_.quality[i].grade != st::fault::Grade::kFailed) continue;
        ++abandoned;
        bool missing = true;
        for (const std::uint8_t cell : artifact_.matrix.row(i)) {
          missing &= cell == st::bgp::kNoCatchment8;
        }
        checks.expect(missing, "abandoned configuration " + std::to_string(i) +
                                   " has an all-missing matrix row");
      }
      checks.expect(result_.quality.size() == plan_.configs.size(),
                    "fault plan grades every configuration");
      report.lines.push_back("faults: " + std::to_string(degraded) +
                             " degraded, " + std::to_string(abandoned) +
                             " abandoned of " +
                             std::to_string(plan_.configs.size()) +
                             " configurations; journal " +
                             fmt(journal_mb_) + " MB in " +
                             fmt(journal_files_) + " files");
    }
    describe_campaign(result_, artifact_, report);
  }

  void sweep(Tracer& tracer, Checks& checks, Report& report) override {
    SweepInputs inputs;
    inputs.testbed = testbed_.get();
    inputs.plan = &plan_;
    inputs.result = &result_;
    inputs.artifact = &artifact_;
    inputs.campaign = first_campaign_;
    inputs.workers = options_.workers;
    inputs.seed = options_.seed;
    inputs.workdir = options_.workdir;
    inputs.journal_mb = journal_mb_;
    inputs.journal_files = journal_files_;
    layer_sweep(inputs, tracer, checks, report);
  }

  void release() override {
    result_ = {};
    artifact_ = {};
  }

  void summarize(Report& report) const override {
    std::vector<double> wall, cpu;
    for (const Timing& t : campaign_) {
      wall.push_back(t.wall);
      cpu.push_back(t.cpu);
    }
    report.named.set("campaign_s", median(wall), "s");
    report.named.set("campaign_cpu_s", median(cpu), "s");
    report.named.set("campaigns", static_cast<double>(wall.size()), "count");
    if (journal_) {
      std::vector<double> resume;
      for (const Timing& t : resume_) resume.push_back(t.wall);
      report.named.set("resume_s", median(resume), "s");
    }
  }

 private:
  st::core::DeploymentArtifact make(const st::core::DeploymentResult& result) {
    st::core::DeploymentArtifact artifact = st::core::make_artifact(
        result, options_.seed, testbed_->graph().size(),
        testbed_->origin().links.size());
    artifact.annotate("location_end", plan_.location);
    artifact.annotate("prepend_end", plan_.location + plan_.prepend);
    return artifact;
  }

  Options options_;
  std::uint32_t transit_;
  std::uint32_t stubs_;
  bool journal_;
  double bad_cell_ceiling_;
  std::string artifact_path_;
  std::string resume_path_;
  std::string journal_dir_;

  std::unique_ptr<st::core::PeeringTestbed> testbed_;
  std::unique_ptr<st::core::PeeringTestbed> resume_testbed_;
  Plan plan_;

  st::core::DeploymentResult result_;  // round 0
  st::core::DeploymentArtifact artifact_;
  std::string first_bytes_;
  Timing first_campaign_;
  std::vector<Timing> campaign_;
  std::vector<Timing> resume_;
  double journal_mb_ = 0.0;
  double journal_files_ = 0.0;
};

}  // namespace

st::core::TestbedConfig testbed_config(std::uint32_t transit,
                                       std::uint32_t stubs,
                                       std::uint64_t seed,
                                       std::size_t workers) {
  // The CLI's defaults (spooftrack deploy): 8 tier-1s, 800 probes, two
  // traceroute rounds per configuration. The topology is always the
  // standard one (testbed seed 42), so every seed deploys the same plan on
  // the same Internet; the run's seed draws the measurement plane instead:
  // collector peers, traceroute noise and the fault schedule.
  st::core::TestbedConfig config;
  config.seed = kStandardSeed;
  config.feed.seed = seed;
  config.traceroute.seed = seed;
  config.faults.seed = seed;
  config.tier1_count = 8;
  config.transit_count = transit;
  config.stub_count = stubs;
  config.probe_count = 800;
  config.traceroute_rounds = 2;
  config.measure_workers = workers;
  return config;
}

Plan make_plan(const st::core::PeeringTestbed& testbed) {
  const st::core::ConfigGenerator generator = testbed.generator();
  const auto location = generator.location_phase();
  const auto prepends = generator.prepend_phase(location);
  const auto poisons = generator.poison_phase(testbed.graph());
  Plan plan;
  plan.location = location.size();
  plan.prepend = prepends.size();
  plan.poison = poisons.size();
  plan.configs = location;
  plan.configs.insert(plan.configs.end(), prepends.begin(), prepends.end());
  plan.configs.insert(plan.configs.end(), poisons.begin(), poisons.end());
  return plan;
}

void check_campaign(const st::core::PeeringTestbed& testbed, const Plan& plan,
                    const st::core::DeploymentResult& result,
                    const st::core::DeploymentArtifact& artifact,
                    const std::string& artifact_path,
                    double bad_cell_ceiling, Checks& checks,
                    Report& report) {
  using st::bgp::kNoCatchment;
  using st::bgp::kNoCatchment8;
  const std::size_t n = plan.configs.size();
  checks.expect(plan.location == 64 && plan.prepend == 294 &&
                    plan.poison == 347,
                "plan splits 64/294/347 (got " +
                    std::to_string(plan.location) + "/" +
                    std::to_string(plan.prepend) + "/" +
                    std::to_string(plan.poison) + ")");
  checks.expect(result.truth.size() == n && artifact.matrix.configs() == n,
                "one ground-truth map and one matrix row per configuration");
  if (result.truth.size() != n || artifact.matrix.configs() != n) return;

  std::size_t unannounced = 0;
  std::size_t poison_checks = 0;
  std::size_t poison_leaks = 0;
  std::size_t bad_cells = 0;
  std::size_t observed_cells = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t mask = announced_mask(plan.configs[i]);
    for (const st::bgp::LinkId link : result.truth[i].link_of) {
      if (link != kNoCatchment && (link >= 64 || !((mask >> link) & 1))) {
        ++unannounced;
      }
    }
    // BGP loop prevention: a poisoned AS finds its own ASN in the link's
    // announcement and drops it, so it never joins that link's catchment.
    for (const st::bgp::AnnouncementSpec& spec :
         plan.configs[i].announcements) {
      for (const st::topology::Asn asn : spec.poisoned) {
        const auto id = testbed.graph().id_of(asn);
        // The policy model lets a few ASes ignore their own ASN in paths
        // (§III-A(c)); loop prevention only binds the others.
        if (!id || testbed.policy().flags(*id).ignores_poison) continue;
        ++poison_checks;
        poison_leaks += result.truth[i].link_of[*id] == spec.link;
      }
    }
    for (const std::uint8_t cell : artifact.matrix.row(i)) {
      if (cell == kNoCatchment8) continue;
      ++observed_cells;
      bad_cells += cell >= 64 || !((mask >> cell) & 1);
    }
  }
  checks.expect(unannounced == 0,
                "every ground-truth catchment is an announced link or none (" +
                    std::to_string(unannounced) + " violations)");
  checks.expect(poison_checks > 0 && poison_leaks == 0,
                "no poisoned AS is in the catchment of the link poisoning it (" +
                    std::to_string(poison_leaks) + " of " +
                    std::to_string(poison_checks) + ")");
  // On a ground-truth matrix the ceiling is 0. On a measured one, catchment
  // inference votes for unannounced links on a seed-dependent share of the
  // observed cells (a known fault, see CHANGES.md); the ceiling stops that
  // share from growing until the fault is mended.
  const double bad_share =
      observed_cells == 0 ? 0.0
                          : static_cast<double>(bad_cells) /
                                static_cast<double>(observed_cells);
  const std::string counted = std::to_string(bad_cells) + " of " +
                              std::to_string(observed_cells) +
                              " observed cells";
  checks.expect(bad_cells == 0 || bad_share <= bad_cell_ceiling,
                "every matrix cell is an announced link or 0xFF, up to a "
                "share of " +
                    fmt(bad_cell_ceiling * 100.0) + "% (" + counted + ")");
  if (!result.measured.empty()) {
    report.lines.push_back("measured matrix cells naming an unannounced link: " +
                           counted + " (" + fmt(bad_share * 100.0) +
                           "%, ceiling " + fmt(bad_cell_ceiling * 100.0) +
                           "%)");
  }

  // Independent clustering: sources with identical matrix columns, keyed
  // by the column bytes, must be exactly cluster_sources' partition.
  const st::core::Clustering clustering =
      st::core::cluster_sources(artifact.matrix);
  std::unordered_map<std::string, std::uint32_t> cluster_of_column;
  std::string column(n, '\0');
  bool consistent = clustering.cluster_of.size() == artifact.matrix.sources();
  for (std::size_t s = 0; consistent && s < artifact.matrix.sources(); ++s) {
    artifact.matrix.gather_column(
        s, reinterpret_cast<std::uint8_t*>(column.data()));
    const auto [it, inserted] =
        cluster_of_column.try_emplace(column, clustering.cluster_of[s]);
    consistent = it->second == clustering.cluster_of[s];
  }
  checks.expect(consistent &&
                    cluster_of_column.size() == clustering.cluster_count,
                "cluster_sources matches an independent grouping of distinct "
                "source columns (" +
                    std::to_string(cluster_of_column.size()) + " columns, " +
                    std::to_string(clustering.cluster_count) + " clusters)");

  checks.expect(st::core::load_artifact_file(artifact_path) == artifact,
                "artifact survives a save and load unchanged");
}

void describe_campaign(const st::core::DeploymentResult& result,
                       const st::core::DeploymentArtifact& artifact,
                       Report& report) {
  const st::core::Clustering clustering =
      st::core::cluster_sources(artifact.matrix);
  std::size_t singletons = 0;
  for (const std::uint32_t size : clustering.sizes()) singletons += size == 1;
  const double singleton_share =
      clustering.cluster_count == 0
          ? 0.0
          : static_cast<double>(singletons) / clustering.cluster_count;
  std::string line = "repro: sources=" + std::to_string(artifact.sources.size()) +
                     " clusters=" + std::to_string(clustering.cluster_count) +
                     " mean_cluster_size=" + fmt(clustering.mean_size()) +
                     " singleton_share=" + fmt(singleton_share * 100.0) + "%";
  if (!result.measured.empty()) {
    // Agreement of measured cells with the routing ground truth.
    std::size_t measured = 0;
    std::size_t agree = 0;
    for (std::size_t i = 0; i < artifact.matrix.configs(); ++i) {
      for (std::size_t s = 0; s < artifact.sources.size(); ++s) {
        const std::uint8_t cell = artifact.matrix.cell(i, s);
        if (cell == st::bgp::kNoCatchment8) continue;
        ++measured;
        agree += result.truth[i].link_of[artifact.sources[s]] == cell;
      }
    }
    line += " multi_catchment=" + fmt(result.mean_multi_catchment * 100.0) +
            "% matrix_agreement=" +
            fmt(measured == 0 ? 0.0 : 100.0 * agree / measured) + "%";
  } else {
    line += " (ground truth)";
  }
  line += " | paper: mean 1.40, 92% singletons";
  report.lines.push_back(line);
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "campaign-2k7") {
    return std::make_unique<CampaignWorkload>(options, 150, 2500, false,
                                              kCeiling2k7);
  }
  if (options.workload == "campaign-67k") {
    return std::make_unique<CampaignWorkload>(options, 3800, 63000, false,
                                              kCeiling67k);
  }
  if (options.workload == "campaign-2k7-journal") {
    return std::make_unique<CampaignWorkload>(options, 150, 2500, true,
                                              kCeiling2k7);
  }
  if (options.workload == "traceback-2k7") return make_traceback(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
