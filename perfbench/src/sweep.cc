/**
 * @file
 * Workload "autotune-sweep": a model-guided VF x CTA sweep
 * (SweepStrategy::Model over the full grid after a warm prefix) on
 * kmn. It forks a warmed state, traces a probe, fits the model and
 * simulates many short suffixes. Each measured winner is simulated
 * again on a fresh device with the cold strategy and must reproduce the
 * sweep's cycles and joules bit for bit.
 */

#include <algorithm>
#include <cstdio>

#include "autotune/autotuner.hh"
#include "autotune/model.hh"
#include "common.hh"
#include "gpu/gpu_top.hh"
#include "kernels/kernel_zoo.hh"
#include "spans.hh"

namespace perfbench
{

using namespace equalizer;

namespace
{

/** Warm-up invocations every grid point shares. */
constexpr int prefixInvocations = 1;

/**
 * Warp program length of every invocation, as a share of kmn's. At full
 * length one sweep is a single ~10 s operation, so a run repeats it
 * only twice and a busy phase of the host decides its fastest repeat;
 * at a quarter a run of 25 s repeats it six to eight times.
 */
constexpr double invocationLength = 0.25;

SweepPlan
makePlan()
{
    SweepPlan plan;
    plan.kernel = KernelZoo::byName("kmn").params;
    // kmn runs once; give it a warm-up invocation plus a tuned tail.
    InvocationMod mod;
    mod.lengthScale = invocationLength;
    plan.kernel.invocations.assign(prefixInvocations + 1, mod);
    plan.strategy = SweepStrategy::Model;
    plan.prefixPolicy = policies::baseline();
    plan.prefixInvocations = prefixInvocations;
    return plan;
}

/** Measured winner among simulated rows, recomputed independently. */
int
measuredArgmin(const std::vector<SweepPointRow> &table, bool by_energy)
{
    int best = -1;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (!table[i].simulated)
            continue;
        const auto value = [&](std::size_t j) {
            return by_energy ? table[j].measuredJoules
                             : table[j].measuredSeconds;
        };
        if (best < 0 || value(i) < value(static_cast<std::size_t>(best)))
            best = static_cast<int>(i);
    }
    return best;
}

class Sweep : public Workload
{
  public:
    Sweep() : plan_(makePlan())
    {
        suffixWalked_ = walkInstructions(plan_.kernel, prefixInvocations);
        walked_ = walkInstructions(plan_.kernel);
    }

    void
    setUp() override
    {
        // What runSweep builds before its first cycle: the runner, the
        // plan, the expanded grid and the parent device.
        runner_ = std::make_unique<ExperimentRunner>(
            GpuConfig::gtx480(), PowerConfig::gtx480(), 1);
        plan_ = makePlan();
        gridPoints_ = expandSweepGrid(runner_->gpuConfig(), plan_.kernel,
                                      plan_.grid);
        {
            Span span("gpu.construct", "gpu");
            parent_ = std::make_unique<GpuTop>();
        }
        swept_ = false;
        rechecks_.clear();
        recheckIds_.clear();
    }

    /// Operation 0 is the model sweep; each further one re-simulates a
    /// distinct measured winner cold, on a fresh device.
    bool
    runNext() override
    {
        if (!swept_) {
            Span span("harness.sweep", "harness");
            result_ = runner_->runSweep(plan_);
            swept_ = true;
            return true;
        }
        for (int id : {result_.bestPerf, result_.bestEnergy}) {
            if (id < 0 || std::count(recheckIds_.begin(),
                                     recheckIds_.end(), id))
                continue;
            const SweepPointRow &row =
                result_.table[static_cast<std::size_t>(id)];
            SweepPlan cold = plan_;
            cold.strategy = SweepStrategy::Cold;
            cold.points = {timedPolicy(
                policies::operatingPoint(row.smVf, row.memVf, row.cta))};
            Span span("harness.sweep", "harness");
            rechecks_.push_back(runner_->runSweep(cold));
            recheckIds_.push_back(id);
            return true;
        }
        return false;
    }

    Report
    check() override
    {
        Report r;
        const std::vector<SweepPointRow> &table = result_.table;
        int simulated = 0;
        for (const SweepPointRow &row : table)
            simulated += row.simulated ? 1 : 0;
        r.attempted = simulated + static_cast<int>(rechecks_.size());
        r.simulations = simulated;

        const std::vector<OperatingPoint> probes = selectProbePoints(
            gridPoints_, plan_.grid, plan_.probePoints);
        const int budget = std::max(static_cast<int>(table.size()) / 5,
                                    static_cast<int>(probes.size()));
        r.expect(table.size() == gridPoints_.size(),
                 "sweep table does not cover the grid");
        r.expect(simulated <= budget,
                 std::to_string(simulated) +
                     " points simulated, over the budget of " +
                     std::to_string(budget));
        r.expect(static_cast<int>(result_.points.size()) == simulated,
                 "sweep points do not match the simulated rows");
        r.expect(result_.bestPerf == measuredArgmin(table, false) &&
                     result_.bestEnergy == measuredArgmin(table, true),
                 "a sweep winner is not the minimum of the simulated rows");

        for (const AppRunResult &point : result_.points) {
            checkRun(point, suffixWalked_, r);
            r.addRunCounts(point.total);
            r.instructions += point.total.instructions;
            // Every simulated point appears in the table with the
            // totals it measured.
            const auto row = std::find_if(
                table.begin(), table.end(), [&](const SweepPointRow &t) {
                    return t.policy == point.policy;
                });
            r.expect(row != table.end() && row->simulated &&
                         row->measuredCycles ==
                             static_cast<double>(point.total.smCycles) &&
                         row->measuredJoules == point.total.totalJoules(),
                     point.policy + ": table row differs from its run");
        }
        for (std::size_t i = 0; i < rechecks_.size(); ++i) {
            const SweepPointRow &row =
                table[static_cast<std::size_t>(recheckIds_[i])];
            const AppRunResult &cold = rechecks_[i].points.front();
            checkRun(cold, suffixWalked_, r);
            r.addRunCounts(cold.total);
            r.instructions += cold.total.instructions;
            r.expect(static_cast<double>(cold.total.smCycles) ==
                             row.measuredCycles &&
                         cold.total.totalJoules() == row.measuredJoules,
                     row.policy + ": cold re-simulation differs from the "
                                  "sweep's measurement");
        }

        // Refit the model from the sweep's own probe rows: the fit must
        // reproduce the sweep's fit error exactly.
        std::vector<MeasuredSample> samples;
        for (const OperatingPoint &op : probes) {
            const auto row = std::find_if(
                table.begin(), table.end(), [&](const SweepPointRow &t) {
                    return t.smVf == op.smVf && t.memVf == op.memVf &&
                           t.cta == op.cta;
                });
            if (row != table.end() && row->simulated)
                samples.push_back(MeasuredSample{op, row->measuredSeconds,
                                                 row->measuredJoules});
        }
        r.expect(samples.size() == probes.size(),
                 "a probe point was not simulated");
        double fit_error_seconds = 0.0;
        double fit_error_joules = 0.0;
        {
            Span span("autotune.fit", "autotune");
            const SweepModel model = SweepModel::fit(
                samples, runner_->gpuConfig().smNominalHz);
            fit_error_seconds = model.fitErrorSeconds();
            fit_error_joules = model.fitErrorJoules();
        }
        r.expect(fit_error_seconds == result_.fitErrorSeconds &&
                     fit_error_joules == result_.fitErrorJoules,
                 "refitting the probes gives a different model");

        r.counts["autotune.grid_points"] = static_cast<double>(table.size());
        r.counts["autotune.probe_points"] =
            static_cast<double>(probes.size());
        r.counts["autotune.fit_error_seconds"] = result_.fitErrorSeconds;
        r.counts["autotune.fit_error_joules"] = result_.fitErrorJoules;
        r.counts["harness.sweep_forks"] =
            static_cast<double>(result_.stats.counterValue("sweep.forks"));

        ExportSink sweep({"id", "policy", "cta", "predicted_seconds",
                          "predicted_cycles", "predicted_joules",
                          "measured_seconds", "measured_cycles",
                          "measured_joules", "simulated"});
        for (const SweepPointRow &row : table) {
            sweep.row({ExportCell::integer(row.id),
                       ExportCell::str(row.policy),
                       ExportCell::integer(row.cta),
                       exactNum(row.predictedSeconds),
                       exactNum(row.predictedCycles),
                       exactNum(row.predictedJoules),
                       exactNum(row.measuredSeconds),
                       exactNum(row.measuredCycles),
                       exactNum(row.measuredJoules),
                       ExportCell::integer(row.simulated ? 1 : 0)});
        }
        sweep.meta("best_perf", ExportCell::integer(result_.bestPerf));
        sweep.meta("best_energy", ExportCell::integer(result_.bestEnergy));
        sweep.meta("fit_error_seconds", exactNum(result_.fitErrorSeconds));
        sweep.meta("fit_error_joules", exactNum(result_.fitErrorJoules));
        ExportSink runs = runTable();
        for (const AppRunResult &point : result_.points)
            addRun(runs, point, "sweep");
        for (const SweepResult &cold : rechecks_)
            addRun(runs, cold.points.front(), "recheck");
        r.results = writeResults({{"sweep", &sweep}, {"runs", &runs}});
        return r;
    }

    void
    probeLayers(Report &r) override
    {
        probeWalk(plan_.kernel, walked_, r);
        probeCheckpoint(plan_.kernel, r);
    }

  private:
    SweepPlan plan_;
    std::uint64_t suffixWalked_ = 0; ///< instructions of one grid point
    std::uint64_t walked_ = 0;       ///< instructions of the plan's kmn
    std::unique_ptr<ExperimentRunner> runner_;
    std::vector<OperatingPoint> gridPoints_;
    std::unique_ptr<GpuTop> parent_;
    bool swept_ = false;
    SweepResult result_;
    std::vector<SweepResult> rechecks_;
    std::vector<int> recheckIds_;
};

} // namespace

std::unique_ptr<Workload>
makeSweep()
{
    return std::make_unique<Sweep>();
}

int
confirmSweep()
{
    ExperimentRunner runner(GpuConfig::gtx480(), PowerConfig::gtx480(), 1);
    SweepPlan plan = makePlan();
    const SweepResult model = runner.runSweep(plan);
    plan.strategy = SweepStrategy::Warm;
    const SweepResult warm = runner.runSweep(plan);
    int simulated = 0;
    for (const SweepPointRow &row : model.table)
        simulated += row.simulated ? 1 : 0;
    const auto name = [](const SweepResult &s, int id) {
        return id < 0 ? std::string("none")
                      : s.table[static_cast<std::size_t>(id)].policy;
    };
    std::printf("model: %d of %zu points simulated, best performance %s, "
                "best energy %s, time fit error %.3f\n",
                simulated, model.table.size(),
                name(model, model.bestPerf).c_str(),
                name(model, model.bestEnergy).c_str(),
                model.fitErrorSeconds);
    std::printf("warm:  %zu points simulated, best performance %s, "
                "best energy %s\n",
                warm.table.size(), name(warm, warm.bestPerf).c_str(),
                name(warm, warm.bestEnergy).c_str());
    const bool exact = model.bestPerf == warm.bestPerf &&
                       model.bestEnergy == warm.bestEnergy;
    std::printf("exact: %s\n", exact ? "yes" : "no");
    return exact ? 0 : 1;
}

} // namespace perfbench
