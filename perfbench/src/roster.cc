/**
 * @file
 * Workload "paper-roster": the paper's evaluation loop through
 * ExperimentRunner::run on two roster kernels per category, each under
 * baseline and both Equalizer modes, the cache kernels also under the
 * Figure 10 baselines (CCWS, DynCTA). The per-cycle SM / memory /
 * controller / energy path does nearly all of the work; nothing forks,
 * serves, autotunes or traces.
 */

#include <map>

#include "common.hh"
#include "gpu/gpu_top.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"
#include "spans.hh"

namespace perfbench
{

using namespace equalizer;

namespace
{

/** Two kernels per category, in roster order within each. */
const char *const rosterKernels[] = {
    "prtcl-2", "sgemm",  // compute
    "lbm", "leuko-1",    // memory
    "kmn", "prtcl-1",    // cache
    "bp-1", "stncl",     // unsaturated; stncl loses in energy mode
};

std::vector<PolicySpec>
policiesFor(const KernelParams &k)
{
    std::vector<PolicySpec> out = {
        policies::baseline(),
        policies::equalizer(EqualizerMode::Performance),
        policies::equalizer(EqualizerMode::Energy),
    };
    if (k.category == KernelCategory::Cache) {
        out.push_back(policies::ccws());
        out.push_back(policies::dynCta());
    }
    return out;
}

class Roster : public Workload
{
  public:
    Roster()
    {
        for (const char *name : rosterKernels) {
            const KernelParams &p = KernelZoo::byName(name).params;
            walked_.push_back(walkInstructions(p));
        }
    }

    void
    setUp() override
    {
        // What ExperimentRunner::run builds before its first cycle: the
        // runner, the kernel and policy lists, a device, a controller
        // and the first launch.
        runner_ = std::make_unique<ExperimentRunner>(
            GpuConfig::gtx480(), PowerConfig::gtx480(), 1);
        kernels_.clear();
        for (const char *name : rosterKernels)
            kernels_.push_back(KernelZoo::byName(name).params);
        plan_.clear();
        for (const KernelParams &k : kernels_)
            for (PolicySpec &policy : policiesFor(k))
                plan_.emplace_back(&k, std::move(policy));
        {
            Span span("gpu.construct", "gpu");
            firstGpu_ = std::make_unique<GpuTop>();
        }
        firstController_ = policiesFor(kernels_.front())[1].build();
        firstGpu_->setController(firstController_.get());
        firstLaunch_ =
            std::make_unique<SyntheticKernel>(kernels_.front(), 0);
        runs_.clear();
        runSpans_.clear();
    }

    bool
    runNext() override
    {
        if (runs_.size() == plan_.size())
            return false;
        const auto &[k, policy] = plan_[runs_.size()];
        Span span("harness.run", "harness");
        runs_.push_back(runner_->run(*k, timedPolicy(policy)));
        runSpans_.push_back(span.id());
        return true;
    }

    Report
    check() override
    {
        Report r;
        ExportSink table = runTable();
        std::vector<double> perf_speedup, energy_saving_ratio;
        std::map<std::string, std::vector<double>> cache_speedup;
        std::size_t at = 0;
        for (std::size_t ki = 0; ki < kernels_.size(); ++ki) {
            const KernelParams &k = kernels_[ki];
            const AppRunResult &base = runs_[at];
            for (const PolicySpec &policy : policiesFor(k)) {
                const AppRunResult &run = runs_[at];
                ++r.attempted;
                checkRun(run, walked_[ki], r);
                r.expect(run.kernel == k.name && run.policy == policy.name,
                         "roster run order differs from the plan");
                r.addRunCounts(run.total);
                r.instructions += run.total.instructions;
                if (runSpans_[at] >= 0) {
                    r.cycleSamples.push_back(CycleSample{
                        k.category,
                        Spans::get().selfSeconds(runSpans_[at]),
                        run.total.smCycles});
                }
                addRun(table, run, "roster");
                const double speedup = speedupOver(base.total, run.total);
                const double efficiency =
                    energyEfficiencyOver(base.total, run.total);
                if (policy.name == "equalizer-perf")
                    perf_speedup.push_back(speedup);
                if (policy.name == "equalizer-energy")
                    energy_saving_ratio.push_back(efficiency);
                if (k.category == KernelCategory::Cache)
                    cache_speedup[policy.name].push_back(speedup);
                // Per-kernel figures for the README's paper-shape bands.
                if (policy.name != "baseline") {
                    r.counts["shape." + k.name + "." + policy.name +
                             ".speedup"] = speedup;
                    r.counts["shape." + k.name + "." + policy.name +
                             ".energy_saving"] = 1.0 - 1.0 / efficiency;
                }
                ++at;
            }
        }
        r.simulations = r.attempted;

        // Paper shape (Section VI): performance mode speeds the roster
        // up, energy mode saves energy, both as geomeans.
        const double speedup = geomean(perf_speedup);
        const double saving = 1.0 - 1.0 / geomean(energy_saving_ratio);
        r.counts["shape.geomean.equalizer-perf.speedup"] = speedup;
        r.counts["shape.geomean.equalizer-energy.energy_saving"] = saving;
        for (const auto &[name, v] : cache_speedup)
            r.counts["shape.cache_geomean." + name + ".speedup"] =
                geomean(v);
        r.expect(speedup > 1.0, "equalizer-perf geomean speedup " +
                                    std::to_string(speedup) +
                                    " is not above 1");
        r.expect(saving > 0.0, "equalizer-energy geomean energy saving " +
                                   std::to_string(saving) +
                                   " is not above 0");
        table.meta("perf_speedup_geomean", exactNum(speedup));
        table.meta("energy_saving_geomean", exactNum(saving));
        r.results = writeResults({{"runs", &table}});
        return r;
    }

    void
    probeLayers(Report &r) override
    {
        for (std::size_t i = 0; i < kernels_.size(); ++i)
            probeWalk(kernels_[i], walked_[i], r);
        probeCheckpoint(KernelZoo::byName("kmn").params, r);
    }

  private:
    std::vector<std::uint64_t> walked_; ///< per roster kernel
    std::unique_ptr<ExperimentRunner> runner_;
    std::vector<KernelParams> kernels_;
    /// The round's operations in order: kernel x policy.
    std::vector<std::pair<const KernelParams *, PolicySpec>> plan_;
    std::unique_ptr<GpuTop> firstGpu_;
    std::unique_ptr<GpuController> firstController_;
    std::unique_ptr<SyntheticKernel> firstLaunch_;
    std::vector<AppRunResult> runs_;
    std::vector<int> runSpans_;
};

} // namespace

std::unique_ptr<Workload>
makeRoster()
{
    return std::make_unique<Roster>();
}

} // namespace perfbench
