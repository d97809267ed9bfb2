#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>

#include "gpu/gpu_top.hh"
#include "gpu/scheduler_core.hh"
#include "kernels/synthetic_kernel.hh"
#include "spans.hh"

namespace perfbench
{

using namespace equalizer;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Report::fail(const std::string &what)
{
    // One line per distinct failure keeps a broken round readable.
    if (std::find(failures.begin(), failures.end(), what) ==
        failures.end())
        failures.push_back(what);
}

void
Report::expect(bool ok, const std::string &what)
{
    if (!ok)
        fail(what);
}

void
Report::addRunCounts(const RunMetrics &m)
{
    counts["gpu.sm_cycles"] += static_cast<double>(m.smCycles);
    counts["gpu.instructions"] += static_cast<double>(m.instructions);
    counts["gpu.fast_forwarded_cycles"] +=
        static_cast<double>(m.fastForwardedCycles);
    counts["mem.l1_hits"] += static_cast<double>(m.l1Hits);
    counts["mem.l1_misses"] += static_cast<double>(m.l1Misses);
    counts["mem.l2_hits"] += static_cast<double>(m.l2Hits);
    counts["mem.l2_misses"] += static_cast<double>(m.l2Misses);
    counts["mem.dram_accesses"] += static_cast<double>(m.dramAccesses);
    counts["mem.dram_row_hits"] += static_cast<double>(m.dramRowHits);
    counts["power.dynamic_j"] += m.dynamicJoules;
    counts["power.static_j"] += m.staticJoules;
}

std::uint64_t
walkInstructions(const KernelParams &params, int first_inv)
{
    std::uint64_t n = 0;
    WarpInstruction ins;
    for (int inv = first_inv; inv < params.invocationCount(); ++inv) {
        const SyntheticKernel launch(params, inv);
        const KernelInfo &info = launch.info();
        for (BlockId b = 0; b < info.totalBlocks; ++b) {
            for (int w = 0; w < info.warpsPerBlock; ++w) {
                const auto stream = launch.makeWarpStream(b, w);
                // A barrier parks the warp; the model does not count it
                // as an issued instruction.
                while (stream->next(ins))
                    n += ins.op != OpClass::Sync;
            }
        }
    }
    return n;
}

void
probeWalk(const KernelParams &params, std::uint64_t expected, Report &r)
{
    std::uint64_t n = 0;
    {
        Span span("kernels.walk", "kernels");
        n = walkInstructions(params);
    }
    r.counts["kernels.walked_instructions"] += static_cast<double>(n);
    r.expect(n == expected,
             params.name + ": instruction walk is not repeatable");
}

namespace
{

/** SM cycles the checkpoint probe simulates before it saves. */
constexpr std::uint64_t probeCycles = 4096;

} // namespace

void
probeCheckpoint(const KernelParams &params, Report &r)
{
    const SyntheticKernel launch(params, 0);
    std::unique_ptr<GpuTop> gpu;
    {
        Span span("gpu.construct", "gpu");
        gpu = std::make_unique<GpuTop>();
    }
    SchedulerCore core(*gpu);
    core.launchKernel(launch);
    int step_span = -1;
    {
        Span span("gpu.step", "gpu");
        step_span = span.id();
        core.step(probeCycles);
    }
    r.cycleSamples.push_back(CycleSample{
        params.category, Spans::get().selfSeconds(step_span), probeCycles});
    r.expect(gpu->midKernel(),
             params.name + ": checkpoint probe drained before its save");

    std::vector<std::uint8_t> saved;
    {
        Span span("sim.save", "sim");
        saved = gpu->saveStateBuffer();
    }
    r.counts["sim.checkpoint_bytes"] += static_cast<double>(saved.size());

    GpuTop loaded;
    {
        Span span("sim.load", "sim");
        loaded.loadStateBuffer(saved);
    }
    r.expect(loaded.saveStateBuffer() == saved,
             params.name + ": save after load differs from the checkpoint");

    GpuTop forked;
    {
        Span span("sim.fork", "sim");
        forked.forkFrom(*gpu);
    }
    r.expect(forked.saveStateBuffer() == saved,
             params.name + ": a fork saves different bytes than its parent");
}

void
checkRun(const AppRunResult &run, std::uint64_t walked, Report &r)
{
    const std::string what = run.kernel + " under " + run.policy;
    const RunMetrics &t = run.total;
    r.expect(t.instructions == walked,
             what + ": " + std::to_string(t.instructions) +
                 " instructions simulated, " + std::to_string(walked) +
                 " walked");
    r.expect(std::isfinite(t.dynamicJoules) && t.dynamicJoules > 0.0 &&
                 std::isfinite(t.staticJoules) && t.staticJoules > 0.0,
             what + ": energy is not positive and finite");
    r.expect(t.totalJoules() == t.dynamicJoules + t.staticJoules,
             what + ": total joules differ from dynamic + static");
    // The total must be the exact sum of its invocations.
    RunMetrics sum;
    for (const RunMetrics &inv : run.invocations)
        sum += inv;
    r.expect(sum.dynamicJoules == t.dynamicJoules &&
                 sum.staticJoules == t.staticJoules &&
                 sum.smCycles == t.smCycles &&
                 sum.instructions == t.instructions,
             what + ": invocations do not sum to the total");
}

namespace
{

/** Span layer of a policy's controller ("" = no controller). */
const char *
controllerLayer(const std::string &policy_name)
{
    if (policy_name == "baseline")
        return "";
    if (policy_name.rfind("equalizer", 0) == 0)
        return "equalizer";
    // CCWS, DynCTA and the static operating points live in baselines/.
    return "baselines";
}

/**
 * Forwards every hook to the wrapped controller and accumulates the
 * host time spent in them; on destruction (at the end of the run that
 * owns it) the total becomes one aggregate span of its layer.
 */
class TimedController : public GpuController
{
  public:
    TimedController(std::unique_ptr<GpuController> inner,
                    std::string layer)
        : inner_(std::move(inner)), layer_(std::move(layer))
    {
    }

    ~TimedController() override
    {
        Spans::get().aggregate(layer_ + ".hook", layer_, first_, last_,
                               busy_, calls_);
    }

    std::string name() const override { return inner_->name(); }

    void
    onKernelLaunch(GpuTop &g) override
    {
        timed([&] { inner_->onKernelLaunch(g); });
    }

    void
    onInvocationLaunch(GpuTop &g, const KernelInvocation &inv) override
    {
        timed([&] { inner_->onInvocationLaunch(g, inv); });
    }

    void
    onSmCycle(GpuTop &g) override
    {
        timed([&] { inner_->onSmCycle(g); });
    }

    void
    onKernelComplete(GpuTop &g) override
    {
        timed([&] { inner_->onKernelComplete(g); });
    }

    void
    visitControllerState(StateVisitor &v, GpuTop &g) override
    {
        timed([&] { inner_->visitControllerState(v, g); });
    }

    Cycle
    nextActionCycle(const GpuTop &g, Cycle now) const override
    {
        Cycle c = 0;
        timed([&] { c = inner_->nextActionCycle(g, now); });
        return c;
    }

  private:
    template <typename F>
    void
    timed(F &&f) const
    {
        const double t0 = Spans::get().now();
        f();
        const double t1 = Spans::get().now();
        if (calls_ == 0)
            first_ = t0;
        last_ = t1;
        busy_ += t1 - t0;
        ++calls_;
    }

    std::unique_ptr<GpuController> inner_;
    std::string layer_;
    mutable double first_ = 0.0;
    mutable double last_ = 0.0;
    mutable double busy_ = 0.0;
    mutable std::uint64_t calls_ = 0;
};

} // namespace

PolicySpec
timedPolicy(const PolicySpec &policy)
{
    const std::string layer = controllerLayer(policy.name);
    if (!Spans::get().enabled() || layer.empty())
        return policy;
    return PolicySpec{policy.name,
                      [policy, layer]() -> std::unique_ptr<GpuController> {
                          return std::make_unique<TimedController>(
                              policy.build(), layer);
                      }};
}

ExportCell
exactNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return ExportCell{buf, false};
}

ExportCell
exactInt(std::uint64_t v)
{
    return ExportCell{std::to_string(v), false};
}

ExportSink
runTable()
{
    return ExportSink({
        "tag", "kernel", "policy", "invocation", "seconds", "sm_cycles",
        "mem_cycles", "instructions", "dynamic_j", "static_j",
        "outcome_cycles", "active", "waiting", "issued", "excess_alu",
        "excess_mem", "barrier", "unaccounted",
        "l1_hits", "l1_misses", "l2_hits", "l2_misses", "dram_accesses",
        "dram_row_hits", "dram_power_down", "sm_residency",
        "mem_residency",
    });
}

namespace
{

std::string
residency(const std::array<Tick, numVfStates> &r)
{
    std::string out;
    for (std::size_t i = 0; i < r.size(); ++i) {
        if (i)
            out += ':';
        out += std::to_string(r[i]);
    }
    return out;
}

void
addMetricsRow(ExportSink &sink, const std::string &tag,
              const std::string &policy, int invocation,
              const RunMetrics &m)
{
    sink.row({
        ExportCell::str(tag),
        ExportCell::str(m.kernel),
        ExportCell::str(policy),
        ExportCell::integer(invocation),
        exactNum(m.seconds),
        exactInt(m.smCycles),
        exactInt(m.memCycles),
        exactInt(m.instructions),
        exactNum(m.dynamicJoules),
        exactNum(m.staticJoules),
        exactInt(m.outcomeCycles),
        ExportCell::integer(m.outcomeTotals.active),
        ExportCell::integer(m.outcomeTotals.waiting),
        ExportCell::integer(m.outcomeTotals.issued),
        ExportCell::integer(m.outcomeTotals.excessAlu),
        ExportCell::integer(m.outcomeTotals.excessMem),
        ExportCell::integer(m.outcomeTotals.barrier),
        ExportCell::integer(m.outcomeTotals.unaccounted),
        exactInt(m.l1Hits),
        exactInt(m.l1Misses),
        exactInt(m.l2Hits),
        exactInt(m.l2Misses),
        exactInt(m.dramAccesses),
        exactInt(m.dramRowHits),
        exactNum(m.dramPowerDownFraction),
        ExportCell::str(residency(m.smResidency)),
        ExportCell::str(residency(m.memResidency)),
    });
}

} // namespace

void
addRun(ExportSink &sink, const AppRunResult &r, const std::string &tag)
{
    addMetricsRow(sink, tag, r.policy, -1, r.total);
    for (std::size_t i = 0; i < r.invocations.size(); ++i)
        addMetricsRow(sink, tag, r.policy, static_cast<int>(i),
                      r.invocations[i]);
}

std::string
writeResults(
    const std::vector<std::pair<std::string, const ExportSink *>> &tables)
{
    Span span("harness.export", "harness");
    std::ostringstream os;
    os << "{\n";
    for (std::size_t i = 0; i < tables.size(); ++i) {
        os << (i ? ",\n" : "") << '"' << tables[i].first << "\": ";
        tables[i].second->write(os, ExportFormat::Json);
    }
    os << "}\n";
    return os.str();
}

} // namespace perfbench
