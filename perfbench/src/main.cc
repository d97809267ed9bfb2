/**
 * @file
 * The benchmark program (README.md).
 *
 *   perfbench --workload <paper-roster|autotune-sweep|serve-2dev>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--results <file>] [--spans <file>]
 *   perfbench --confirm-sweep
 *
 * Runs whole rounds until @c --seconds of timed work have passed (two
 * at least), checking every round's outputs. Before each round the workload is
 * set up several times on its own (setup_s is the median); wall_s is
 * one round with every operation at its fastest untraced repeat. With --trace 1, every other round records
 * host-time spans and the run reports per-layer metrics instead of the
 * end-to-end ones. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hh"
#include "spans.hh"

using namespace perfbench;

namespace
{

/** Set-ups timed before each untraced round. */
constexpr int setupSamples = 25;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string results;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <paper-roster|"
                 "autotune-sweep|serve-2dev> --seed <n> --seconds <s> "
                 "--trace <0|1> [--results <file>] [--spans <file>]\n"
                 "       perfbench --confirm-sweep\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                o.workload = value;
            else if (key == "--seed")
                o.seed = std::stoull(value);
            else if (key == "--seconds")
                o.seconds = std::stod(value);
            else if (key == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (key == "--results")
                o.results = value;
            else if (key == "--spans")
                o.spans = value;
            else
                usage("unknown option " + key);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + key);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0.0))
        usage("--seconds must not be negative");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "paper-roster")
        return makeRoster();
    if (o.workload == "autotune-sweep")
        return makeSweep();
    if (o.workload == "serve-2dev")
        return makeServe(o.seed);
    usage("unknown workload '" + o.workload + "'");
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--confirm-sweep")
        return confirmSweep();
    const Options opt = parseArgs(argc, argv);
    Spans::get().setWorkload(opt.workload);
    std::unique_ptr<Workload> w = makeWorkload(opt);

    // Whole rounds until the timed work reaches --seconds; in traced
    // mode untraced and traced rounds alternate.
    // Every untraced round is preceded by set-ups timed on their own.
    std::vector<double> setups, cpus, traced_walls, untraced_walls;
    std::vector<double> best_op; // per operation: fastest untraced time
    std::vector<CycleSample> cycle_samples;
    Report first;  // round 1: simulated counts and results
    Report probed; // first traced round: adds the probes' counts
    Report overall; // failed checks of every round
    int rounds = 0, attempted = 0, failed = 0;
    double timed = 0.0;
    for (;;) {
        const bool traced = opt.trace && rounds % 2 == 1;
        if (!traced) {
            for (int i = 0; i < setupSamples; ++i) {
                const double t0 = wallNow();
                w->setUp();
                setups.push_back(wallNow() - t0);
            }
        }
        Spans::get().enable(traced);
        w->setUp();

        std::vector<double> ops;
        const double c0 = cpuNow();
        for (;;) {
            const double t0 = wallNow();
            if (!w->runNext())
                break;
            ops.push_back(wallNow() - t0);
        }
        const double cpu = cpuNow() - c0;
        double wall = 0.0;
        for (double t : ops)
            wall += t;

        Report r = w->check();
        if (traced)
            w->probeLayers(r);
        Spans::get().enable(false);

        if (rounds == 0) {
            first = r;
            best_op = ops;
        } else if (r.results != first.results ||
                   ops.size() != best_op.size()) {
            r.fail("round " + std::to_string(rounds + 1) +
                   " simulated different results than round 1");
        }
        for (const std::string &f : r.failures)
            overall.fail(f);
        attempted += r.attempted;
        failed += r.failed;
        if (traced) {
            traced_walls.push_back(wall);
            if (traced_walls.size() == 1)
                probed = r;
            cycle_samples.insert(cycle_samples.end(),
                                 r.cycleSamples.begin(),
                                 r.cycleSamples.end());
        } else {
            untraced_walls.push_back(wall);
            cpus.push_back(cpu);
            for (std::size_t i = 0; i < ops.size() && i < best_op.size();
                 ++i)
                best_op[i] = std::min(best_op[i], ops[i]);
        }
        timed += wall;
        ++rounds;
        // Two untraced rounds at least: wall_s takes each operation's
        // fastest repeat. A traced run needs one of each kind.
        if (timed >= opt.seconds &&
            (opt.trace ? rounds >= 2 : untraced_walls.size() >= 2))
            break;
    }
    // One round's host time with every operation at its fastest
    // untraced repeat: the rounds are spread over the run, so a busy
    // phase of another tenant on the shared core does not decide it.
    double round_wall = 0.0;
    for (double t : best_op)
        round_wall += t;

    const bool correct = overall.failures.empty();
    if (!opt.results.empty()) {
        std::ofstream os(opt.results);
        os << first.results;
        if (!os)
            std::cerr << "perfbench: cannot write " << opt.results << '\n';
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"wall_s", round_wall, "s"},
            {"sim_instr_per_s",
             static_cast<double>(first.instructions) / round_wall, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sweep_simulations", static_cast<double>(first.simulations),
             "count"},
        };
    } else {
        const Spans &sp = Spans::get();
        const double n = static_cast<double>(traced_walls.size());
        const std::map<std::string, double> self = sp.selfByLayer();
        const auto selfOf = [&](const std::string &layer) {
            const auto it = self.find(layer);
            return it == self.end() ? 0.0 : it->second / n;
        };
        const auto perRound = [&](const std::string &span) {
            return sp.busyOf(span) / n;
        };
        const auto count = [&](const std::string &key) {
            const auto it = probed.counts.find(key);
            return it == probed.counts.end() ? 0.0 : it->second;
        };
        const auto nsPerCycle = [&](equalizer::KernelCategory c) {
            double s = 0.0, cycles = 0.0;
            for (const CycleSample &cs : cycle_samples) {
                if (cs.category == c) {
                    s += cs.seconds;
                    cycles += static_cast<double>(cs.smCycles);
                }
            }
            return cycles > 0.0 ? s / cycles * 1e9 : 0.0;
        };
        const double walked = count("kernels.walked_instructions");
        const double constructs =
            static_cast<double>(sp.callsOf("gpu.construct"));
        const double serve_s = perRound("serve.serve");
        using equalizer::KernelCategory;
        metrics = {
            {"harness.run_s", perRound("harness.run"), "s"},
            {"harness.sweep_s", perRound("harness.sweep"), "s"},
            {"harness.sweep_forks", count("harness.sweep_forks"), "count"},
            {"harness.export_s", perRound("harness.export"), "s"},
            {"harness.cpu_s", median(cpus), "s"},
            {"harness.self_s", selfOf("harness"), "s"},
            {"gpu.construct_s",
             constructs > 0 ? sp.busyOf("gpu.construct") / constructs : 0.0,
             "s"},
            {"gpu.ns_per_sm_cycle.compute",
             nsPerCycle(KernelCategory::Compute), "ns"},
            {"gpu.ns_per_sm_cycle.memory",
             nsPerCycle(KernelCategory::Memory), "ns"},
            {"gpu.ns_per_sm_cycle.cache", nsPerCycle(KernelCategory::Cache),
             "ns"},
            {"gpu.ns_per_sm_cycle.unsaturated",
             nsPerCycle(KernelCategory::Unsaturated), "ns"},
            {"gpu.fast_forwarded_cycles", count("gpu.fast_forwarded_cycles"),
             "cycles"},
            {"gpu.sm_cycles", count("gpu.sm_cycles"), "cycles"},
            {"gpu.instructions", count("gpu.instructions"), "count"},
            {"gpu.self_s", selfOf("gpu"), "s"},
            {"mem.l1_hits", count("mem.l1_hits"), "count"},
            {"mem.l1_misses", count("mem.l1_misses"), "count"},
            {"mem.l2_hits", count("mem.l2_hits"), "count"},
            {"mem.l2_misses", count("mem.l2_misses"), "count"},
            {"mem.dram_accesses", count("mem.dram_accesses"), "count"},
            {"mem.dram_row_hits", count("mem.dram_row_hits"), "count"},
            {"power.dynamic_j", count("power.dynamic_j"), "J"},
            {"power.static_j", count("power.static_j"), "J"},
            {"equalizer.hook_s", perRound("equalizer.hook"), "s"},
            {"equalizer.hook_calls",
             static_cast<double>(sp.callsOf("equalizer.hook")) / n,
             "count"},
            {"baselines.hook_s", perRound("baselines.hook"), "s"},
            {"kernels.ns_per_instruction",
             walked > 0 ? perRound("kernels.walk") / walked * 1e9 : 0.0,
             "ns"},
            {"kernels.self_s", selfOf("kernels"), "s"},
            {"sim.checkpoint_bytes", count("sim.checkpoint_bytes"), "B"},
            {"sim.save_s", perRound("sim.save"), "s"},
            {"sim.load_s", perRound("sim.load"), "s"},
            {"sim.fork_s", perRound("sim.fork"), "s"},
            {"sim.self_s", selfOf("sim"), "s"},
            {"trace.events_recorded", count("trace.events_recorded"),
             "count"},
            {"trace.events_dropped", count("trace.events_dropped"),
             "count"},
            {"trace.finish_s", perRound("trace.finish"), "s"},
            {"trace.sink_s", perRound("trace.sink"), "s"},
            {"trace.self_s", selfOf("trace"), "s"},
            {"autotune.grid_points", count("autotune.grid_points"),
             "count"},
            {"autotune.probe_points", count("autotune.probe_points"),
             "count"},
            {"autotune.fit_s", perRound("autotune.fit"), "s"},
            {"autotune.fit_error_seconds",
             count("autotune.fit_error_seconds"), "ratio"},
            {"autotune.fit_error_joules", count("autotune.fit_error_joules"),
             "ratio"},
            {"autotune.self_s", selfOf("autotune"), "s"},
            {"serve.serve_s", serve_s, "s"},
            {"serve.ms_per_request",
             first.attempted > 0 && count("serve.completed") > 0
                 ? serve_s * 1e3 / first.attempted
                 : 0.0,
             "ms"},
            {"serve.preemptions", count("serve.preemptions"), "count"},
            {"serve.completed", count("serve.completed"), "count"},
            {"serve.executed_cycles", count("serve.executed_cycles"),
             "cycles"},
            {"serve.latency_p50_cycles", count("serve.latency_p50_cycles"),
             "cycles"},
            {"serve.latency_p95_cycles", count("serve.latency_p95_cycles"),
             "cycles"},
            {"serve.self_s", selfOf("serve"), "s"},
            {"bench.trace_overhead_s",
             median(traced_walls) - median(untraced_walls),
             "s"},
        };
        if (!opt.spans.empty() && !sp.write(opt.spans))
            std::cerr << "perfbench: cannot write " << opt.spans << '\n';
    }

    // Human-readable summary, then the one-line JSON result.
    std::printf("workload %s  seed %llu  rounds %d  timed %.3f s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), rounds, timed);
    std::printf("  untraced rounds (s):");
    for (double t : untraced_walls)
        std::printf(" %.3f", t);
    std::printf("\n");
    for (const auto &[k, v] : first.counts)
        std::printf("  simulated %-30s %.17g\n", k.c_str(), v);
    for (const Metric &m : metrics)
        std::printf("  %-34s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  attempted %d  failed %d\n", attempted, failed);
    for (const std::string &f : overall.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
