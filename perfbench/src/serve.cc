/**
 * @file
 * Workload "serve-2dev": a seeded open-loop Poisson stream of requests
 * served by RequestServer on two devices under the preemptive
 * dispatcher with predictive admission. Short high-priority kernels
 * (bp-1, lbm) preempt long ones (prtcl-2, kmn) through checkpoint-shelf
 * round trips; the deadline is loose enough that no request is
 * rejected or late. The program's tracer records device 0 into memory.
 */

#include <algorithm>
#include <iterator>
#include <set>

#include "common.hh"
#include "gpu/gpu_top.hh"
#include "kernels/kernel_zoo.hh"
#include "serve/arrival.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "trace/sink.hh"
#include "trace/trace_reader.hh"
#include "trace/tracer.hh"

namespace perfbench
{

using namespace equalizer;

namespace
{

constexpr int requestCount = 200;
constexpr int deviceCount = 2;

/** The request mix: long low-priority, short high-priority kernels. */
const ArrivalMix serveMix[] = {
    {"prtcl-2", 0}, {"kmn", 0}, {"bp-1", 1}, {"lbm", 1}};

/**
 * The request stream of @p seed: one Poisson stream per kernel of the
 * mix, merged. That is the same process as one stream picking a kernel
 * uniformly per arrival, but every seed gets the same number of
 * requests of each kernel, so the work to serve does not vary with the
 * seed, only its timing does.
 */
std::vector<ServeRequest>
makeRequests(std::uint64_t seed)
{
    constexpr int kinds = static_cast<int>(std::size(serveMix));
    std::vector<ServeRequest> out;
    for (int k = 0; k < kinds; ++k) {
        ArrivalSpec spec;
        spec.kind = ArrivalKind::Poisson;
        spec.count = requestCount / kinds;
        // About two thirds device utilization in all: queues form, and
        // short arrivals find long kernels worth evicting.
        spec.ratePerMcycle = 60.0 / kinds;
        spec.seed = seed * kinds + static_cast<std::uint64_t>(k);
        spec.mix = {serveMix[k]};
        // 10 ms at the nominal 700 MHz SM clock: two orders of
        // magnitude above any latency this stream produces.
        spec.sloCycles = 7'000'000;
        const std::vector<ServeRequest> part = generateArrivals(spec);
        out.insert(out.end(), part.begin(), part.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ServeRequest &a, const ServeRequest &b) {
                         return a.arrivalCycle < b.arrivalCycle;
                     });
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].id = static_cast<int>(i);
    return out;
}

ServeOptions
makeOptions()
{
    ServeOptions opts;
    opts.policy = ServePolicy::Preempt;
    opts.admission = AdmissionPolicy::Predictive;
    return opts;
}

class Serve : public Workload
{
  public:
    explicit Serve(std::uint64_t seed) : seed_(seed)
    {
        for (const ArrivalMix &m : serveMix) {
            const KernelParams scaled = scaleKernelParams(
                KernelZoo::byName(m.kernel).params,
                makeOptions().kernelScale);
            walked_[m.kernel] = walkInstructions(scaled);
        }
    }

    void
    setUp() override
    {
        // Tear down in dependency order: the server points at the
        // devices, device 0 at the tracer, the tracer at its sink.
        server_.reset();
        gpus_.clear();
        tracer_.reset();
        sink_.reset();
        requests_ = makeRequests(seed_);
        for (int d = 0; d < deviceCount; ++d) {
            {
                Span span("gpu.construct", "gpu");
                gpus_.push_back(std::make_unique<GpuTop>());
            }
            if (d > 0) {
                Span span("sim.fork", "sim");
                gpus_.back()->forkFrom(*gpus_.front());
            }
        }
        sink_ = std::make_unique<MemoryTraceSink>();
        tracer_ = std::make_unique<Tracer>(TraceConfig{}, *sink_);
        gpus_.front()->setTracer(tracer_.get());
        std::vector<GpuTop *> ptrs;
        for (auto &g : gpus_)
            ptrs.push_back(g.get());
        server_ = std::make_unique<RequestServer>(ptrs, makeOptions());
        served_ = false;
    }

    /// One operation: serve the whole stream, then drain the trace.
    bool
    runNext() override
    {
        if (served_)
            return false;
        served_ = true;
        {
            Span span("serve.serve", "serve");
            report_ = server_->serve(requests_);
        }
        {
            Span span("trace.finish", "trace");
            gpus_.front()->setTracer(nullptr);
            tracer_->finish();
        }
        Span span("trace.sink", "trace");
        traceBytes_ = sink_->serialize();
        return true;
    }

    Report
    check() override
    {
        Report r;
        const ServeSummary &s = report_.summary;
        r.attempted = static_cast<int>(requests_.size());
        r.simulations = r.attempted;
        r.expect(report_.records.size() == requests_.size(),
                 "serve reported a different number of requests");

        std::set<int> ids;
        std::uint64_t executed = 0;
        for (const RequestRecord &rec : report_.records) {
            const std::string what =
                "request " + std::to_string(rec.req.id) + " (" +
                rec.req.kernel + ")";
            if (!rec.completed || rec.rejected || rec.sloViolated)
                ++r.failed;
            r.expect(ids.insert(rec.req.id).second,
                     what + " is reported twice");
            r.expect(rec.latencyCycles >= rec.executedCycles,
                     what + ": latency below its executed cycles");
            const auto w = walked_.find(rec.req.kernel);
            r.expect(w != walked_.end() && rec.instructions == w->second,
                     what + ": " + std::to_string(rec.instructions) +
                         " instructions simulated, " +
                         std::to_string(w == walked_.end() ? 0
                                                           : w->second) +
                         " walked");
            r.instructions += rec.instructions;
            executed += rec.executedCycles;
        }
        r.expect(static_cast<int>(ids.size()) == s.requests &&
                     (ids.empty() || (*ids.begin() == 0 &&
                                      *ids.rbegin() == s.requests - 1)),
                 "request ids are not 0..n-1");
        r.expect(s.completed == s.requests && s.rejected == 0 &&
                     s.sloViolations == 0,
                 std::to_string(s.completed) + " of " +
                     std::to_string(s.requests) + " requests completed, " +
                     std::to_string(s.rejected) + " rejected, " +
                     std::to_string(s.sloViolations) + " late");
        r.expect(executed == s.executedCycles,
                 "request executed cycles do not sum to the summary");

        int dev_completed = 0, dev_preemptions = 0;
        Cycle dev_executed = 0;
        for (const ServeDeviceStats &d : report_.deviceStats) {
            dev_completed += d.completed;
            dev_preemptions += d.preemptions;
            dev_executed += d.executedCycles;
        }
        r.expect(static_cast<int>(report_.deviceStats.size()) ==
                         deviceCount &&
                     dev_completed == s.completed &&
                     dev_preemptions == s.preemptions &&
                     dev_executed == s.executedCycles,
                 "per-device counts do not sum to the summary");

        // Strict validation: TraceReader refuses a malformed trace.
        const TraceReader reader = TraceReader::fromBytes(traceBytes_);
        r.expect(reader.segments() >= 1 && !reader.events().empty(),
                 "the serve trace is empty");

        r.counts["gpu.sm_cycles"] = static_cast<double>(s.executedCycles);
        r.counts["gpu.instructions"] = static_cast<double>(r.instructions);
        r.counts["serve.preemptions"] = s.preemptions;
        r.counts["serve.completed"] = s.completed;
        r.counts["serve.executed_cycles"] =
            static_cast<double>(s.executedCycles);
        r.counts["serve.latency_p50_cycles"] =
            static_cast<double>(s.p50Latency);
        r.counts["serve.latency_p95_cycles"] =
            static_cast<double>(s.p95Latency);
        r.counts["trace.events_recorded"] =
            static_cast<double>(tracer_->eventsRecorded());
        r.counts["trace.events_dropped"] =
            static_cast<double>(tracer_->eventsDropped());

        ExportSink table({"request", "kernel", "priority", "arrival_cycle",
                          "slo_cycles", "completed", "slo_violated",
                          "rejected", "preemptions", "device",
                          "start_cycle", "complete_cycle",
                          "latency_cycles", "executed_cycles",
                          "instructions"});
        for (const RequestRecord &rec : report_.records) {
            table.row({ExportCell::integer(rec.req.id),
                       ExportCell::str(rec.req.kernel),
                       ExportCell::integer(rec.req.priority),
                       exactInt(rec.req.arrivalCycle),
                       exactInt(rec.req.sloCycles),
                       ExportCell::integer(rec.completed),
                       ExportCell::integer(rec.sloViolated),
                       ExportCell::integer(rec.rejected),
                       ExportCell::integer(rec.preemptions),
                       ExportCell::integer(rec.device),
                       exactInt(rec.startCycle),
                       exactInt(rec.completeCycle),
                       exactInt(rec.latencyCycles),
                       exactInt(rec.executedCycles),
                       exactInt(rec.instructions)});
        }
        table.meta("seed", exactInt(seed_));
        table.meta("preemptions", ExportCell::integer(s.preemptions));
        table.meta("wall_cycles", exactInt(s.wallCycles));
        table.meta("p50_latency", exactInt(s.p50Latency));
        table.meta("p95_latency", exactInt(s.p95Latency));
        table.meta("p99_latency", exactInt(s.p99Latency));
        table.meta("trace_bytes", exactInt(traceBytes_.size()));
        for (const ServeDeviceStats &d : report_.deviceStats) {
            const std::string p = "dev" + std::to_string(d.device) + "_";
            table.meta(p + "completed", ExportCell::integer(d.completed));
            table.meta(p + "preemptions",
                       ExportCell::integer(d.preemptions));
            table.meta(p + "executed_cycles", exactInt(d.executedCycles));
            table.meta(p + "wall_cycles", exactInt(d.wallCycles));
        }
        r.results = writeResults({{"serve", &table}});
        return r;
    }

    void
    probeLayers(Report &r) override
    {
        for (const ArrivalMix &m : serveMix) {
            const KernelParams scaled = scaleKernelParams(
                KernelZoo::byName(m.kernel).params,
                makeOptions().kernelScale);
            probeWalk(scaled, walked_.at(m.kernel), r);
            probeCheckpoint(scaled, r);
        }
    }

  private:
    std::uint64_t seed_;
    std::map<std::string, std::uint64_t> walked_; ///< scaled, per kernel
    std::vector<ServeRequest> requests_;
    std::vector<std::unique_ptr<GpuTop>> gpus_;
    std::unique_ptr<MemoryTraceSink> sink_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<RequestServer> server_;
    bool served_ = false;
    ServeReport report_;
    std::vector<std::uint8_t> traceBytes_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(std::uint64_t seed)
{
    return std::make_unique<Serve>(seed);
}

} // namespace perfbench
