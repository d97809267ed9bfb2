/**
 * @file
 * Shared pieces of the benchmark program: the workload interface, the
 * per-round report, the instruction-stream oracle, the output checks
 * every workload applies, and the simulated-statistics record.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/metrics.hh"
#include "harness/export.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "kernels/kernel_params.hh"

namespace perfbench
{

/** Host seconds on a monotonic clock. */
double wallNow();

/** Host CPU seconds this process has used (all threads). */
double cpuNow();

/** The median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * One host-time sample of the GPU model: @p seconds of host time that
 * simulated @p smCycles SM cycles of a kernel of @p category.
 */
struct CycleSample
{
    equalizer::KernelCategory category;
    double seconds = 0.0;
    std::uint64_t smCycles = 0;
};

/** What one round did and whether its outputs checked out. */
struct Report
{
    int attempted = 0; ///< operations started
    int failed = 0;    ///< operations that did not complete as asked
    std::uint64_t instructions = 0; ///< simulated warp instructions
    int simulations = 0; ///< the sweep_simulations metric
    std::vector<std::string> failures; ///< failed output checks

    /** Simulated per-layer counts (identical in every round). */
    std::map<std::string, double> counts;

    /** Host-time samples of the GPU model (traced rounds only). */
    std::vector<CycleSample> cycleSamples;

    /** The round's simulated-statistics record (JSON). */
    std::string results;

    /** Record a failed output check. */
    void fail(const std::string &what);

    /** fail(@p what) unless @p ok. */
    void expect(bool ok, const std::string &what);

    /** Add a run's simulated counters to the gpu/mem/power counts. */
    void addRunCounts(const equalizer::RunMetrics &m);
};

/**
 * One benchmark workload. A run calls setUp(), then runNext() until it
 * returns false, once per round; check() follows every round and
 * probeLayers() every traced round. The benchmark times each operation
 * on its own.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build fresh state: everything before the first simulated cycle. */
    virtual void setUp() = 0;

    /**
     * Run the round's next timed operation; false (having done
     * nothing) once the round is complete. Every round runs the same
     * operations.
     */
    virtual bool runNext() = 0;

    /** Check the round's outputs and account for them (untimed). */
    virtual Report check() = 0;

    /**
     * Traced rounds only: the benchmark's own calls into the layers the
     * round does not time by itself (instruction walks, checkpoints).
     */
    virtual void probeLayers(Report &r) = 0;
};

std::unique_ptr<Workload> makeRoster();
std::unique_ptr<Workload> makeSweep();
std::unique_ptr<Workload> makeServe(std::uint64_t seed);

/**
 * Run the sweep workload's plan model-guided and as an exhaustive warm
 * sweep and print both winners; 0 when they match, 1 otherwise.
 */
int confirmSweep();

/**
 * Issued warp instructions (barriers excluded) in invocations
 * [@p first_inv, count) of @p params, counted by walking every warp's
 * instruction stream outside the timing model.
 */
std::uint64_t walkInstructions(const equalizer::KernelParams &params,
                               int first_inv = 0);

/**
 * Walk @p params again inside a "kernels.walk" span and check the count
 * against @p expected.
 */
void probeWalk(const equalizer::KernelParams &params,
               std::uint64_t expected, Report &r);

/**
 * The benchmark's own checkpoint calls on a mid-kernel device of
 * @p params: construct, step 4096 SM cycles, save, load into a second
 * device, fork into a third; both copies must save the same bytes.
 */
void probeCheckpoint(const equalizer::KernelParams &params, Report &r);

/**
 * The output checks every simulated application gets: energy adds up
 * (total = dynamic + static, invocations sum to the total) and the
 * instruction count equals @p walked.
 */
void checkRun(const equalizer::AppRunResult &run, std::uint64_t walked,
              Report &r);

/**
 * @p policy unchanged, or — while spans are recording — wrapped so its
 * controller's hooks are timed into its layer by a forwarding
 * GpuController (the simulation is unchanged). CCWS, DynCTA and the
 * static operating points time into "baselines", Equalizer into
 * "equalizer".
 */
equalizer::PolicySpec timedPolicy(const equalizer::PolicySpec &policy);

/** A numeric export cell that round-trips a double exactly. */
equalizer::ExportCell exactNum(double v);

/** An integer export cell. */
equalizer::ExportCell exactInt(std::uint64_t v);

/** A run-metrics table with every RunMetrics field, exact. */
equalizer::ExportSink runTable();

/** Append one application result (total row, then invocations). */
void addRun(equalizer::ExportSink &sink, const equalizer::AppRunResult &r,
            const std::string &tag);

/**
 * Serialize @p tables into one JSON object (name -> table) inside a
 * "harness.export" span.
 */
std::string
writeResults(const std::vector<std::pair<std::string,
                                         const equalizer::ExportSink *>>
                 &tables);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
