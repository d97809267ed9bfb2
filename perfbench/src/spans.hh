/**
 * @file
 * The benchmark's traced mode: host-time spans recorded around the
 * benchmark's calls into each layer of the simulator. Spans stay in
 * memory and are written out when the run ends; a layer's self time is
 * its spans' busy time minus the busy time of their child spans.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span. */
struct SpanRecord
{
    int parent = -1;     ///< index of the enclosing span, -1 = none
    std::string name;    ///< "<layer>.<call>"
    std::string layer;   ///< the layer called into
    double start = 0.0;  ///< host seconds since the run started
    double end = 0.0;
    /**
     * Host seconds inside the layer: end - start for a single call; the
     * sum of the calls for an aggregate span (controller hooks, which
     * fire every SM cycle and are recorded as one span per run).
     */
    double busy = 0.0;
    std::uint64_t calls = 1;
};

/** The span store (one per process). */
class Spans
{
  public:
    static Spans &get();

    /** Record spans from now on (true) or ignore them (false). */
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    void setWorkload(std::string w) { workload_ = std::move(w); }

    /** Open a span; returns its index, or -1 while disabled. */
    int open(const std::string &name, const std::string &layer);

    /** Close span @p id (no-op for -1). */
    void close(int id);

    /**
     * Record an aggregate child of the innermost open span: @p calls
     * calls between @p start and @p end that took @p busy seconds.
     */
    void aggregate(const std::string &name, const std::string &layer,
                   double start, double end, double busy,
                   std::uint64_t calls);

    /** Seconds since the run started, on the span clock. */
    double now() const;

    /** Busy seconds of span @p id minus those of its children. */
    double selfSeconds(int id) const;

    /** Summed self seconds per layer. */
    std::map<std::string, double> selfByLayer() const;

    /** Summed busy seconds and calls of every span named @p name. */
    double busyOf(const std::string &name) const;
    std::uint64_t callsOf(const std::string &name) const;

    /** Write every span as JSON lines; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    Spans();

    bool enabled_ = false;
    std::string workload_;
    double origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_; ///< stack of open span indices
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    Span(const std::string &name, const std::string &layer)
        : id_(Spans::get().open(name, layer))
    {
    }
    ~Span() { Spans::get().close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Index of the span (-1 while spans are disabled). */
    int id() const { return id_; }

  private:
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
