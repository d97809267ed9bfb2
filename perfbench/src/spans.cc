#include "spans.hh"

#include <cstdio>
#include <fstream>

#include "common.hh"

namespace perfbench
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

Spans::Spans() : origin_(wallNow()) {}

Spans &
Spans::get()
{
    static Spans spans;
    return spans;
}

double
Spans::now() const
{
    return wallNow() - origin_;
}

int
Spans::open(const std::string &name, const std::string &layer)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.name = name;
    rec.layer = layer;
    rec.start = now();
    spans_.push_back(std::move(rec));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    if (id < 0)
        return;
    SpanRecord &rec = spans_[static_cast<std::size_t>(id)];
    rec.end = now();
    rec.busy = rec.end - rec.start;
    // Spans are RAII-scoped, so they close innermost first.
    open_.pop_back();
}

void
Spans::aggregate(const std::string &name, const std::string &layer,
                 double start, double end, double busy,
                 std::uint64_t calls)
{
    if (!enabled_ || calls == 0)
        return;
    SpanRecord rec;
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.name = name;
    rec.layer = layer;
    rec.start = start;
    rec.end = end;
    rec.busy = busy;
    rec.calls = calls;
    spans_.push_back(std::move(rec));
}

double
Spans::selfSeconds(int id) const
{
    if (id < 0)
        return 0.0;
    double self = spans_[static_cast<std::size_t>(id)].busy;
    for (const SpanRecord &rec : spans_)
        if (rec.parent == id)
            self -= rec.busy;
    return self;
}

std::map<std::string, double>
Spans::selfByLayer() const
{
    std::vector<double> child_busy(spans_.size(), 0.0);
    for (const SpanRecord &rec : spans_)
        if (rec.parent >= 0)
            child_busy[static_cast<std::size_t>(rec.parent)] += rec.busy;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].layer] += spans_[i].busy - child_busy[i];
    return out;
}

double
Spans::busyOf(const std::string &name) const
{
    double sum = 0.0;
    for (const SpanRecord &rec : spans_)
        if (rec.name == name)
            sum += rec.busy;
    return sum;
}

std::uint64_t
Spans::callsOf(const std::string &name) const
{
    std::uint64_t sum = 0;
    for (const SpanRecord &rec : spans_)
        if (rec.name == name)
            sum += rec.calls;
    return sum;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    char buf[160];
    for (const SpanRecord &rec : spans_) {
        std::snprintf(buf, sizeof buf,
                      "\"start\": %.9f, \"end\": %.9f, \"busy\": %.9f, "
                      "\"calls\": %llu, \"parent\": %d}",
                      rec.start, rec.end, rec.busy,
                      static_cast<unsigned long long>(rec.calls),
                      rec.parent);
        os << "{\"name\": " << jsonString(rec.name)
           << ", \"layer\": " << jsonString(rec.layer)
           << ", \"workload\": " << jsonString(workload_) << ", " << buf
           << '\n';
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
