/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * The benchmark wraps every call it makes into a library layer in a
 * named span (name, start, end, parent, pass). Spans stay in memory
 * and are written once at exit as a Chrome trace (through
 * obs::chromeTraceJson, so the file carries the repo's usual trace
 * metadata) plus a per-layer self-time table. Per-request callbacks
 * (TrafficStream::next, route rows) are too frequent for one span
 * each; they feed Accumulators whose total time is charged to the
 * span that was open when they ran.
 *
 * When tracing is off every call here is a branch on a bool: the
 * measured (untraced) runs pay nothing for the tracer's existence.
 */

#ifndef BW_PERFBENCH_HOST_TRACE_H
#define BW_PERFBENCH_HOST_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/chrome_trace.h"

namespace perfbench {

/** Monotonic host nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p v (0 when empty); sorts a copy. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Arithmetic mean of @p v (0 when empty). */
inline double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

class HostTracer
{
  public:
    struct Span
    {
        const char *name = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1; //!< index of the parent span, -1 for a root
        int pass = -1;   //!< see setPass()
        int64_t accumNs = 0; //!< accumulator time charged inside
    };

    /** Aggregated timer for per-request callbacks. */
    struct Accumulator
    {
        int64_t ns = 0;
        uint64_t calls = 0;
    };

    /** Closes its span on destruction (no-op when tracing is off). */
    class Scope
    {
      public:
        Scope(HostTracer *t, int idx) : t_(t), idx_(idx) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope()
        {
            if (t_)
                t_->close(idx_);
        }

      private:
        HostTracer *t_;
        int idx_;
    };

    explicit HostTracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    /** Pause or resume recording (the traced run's untraced half). */
    void setEnabled(bool on) { on_ = on; }
    /** Tag subsequent spans: >= 0 a measured pass, -1 warm-up or
     *  unmeasured, <= -2 set-up repetition (-2 - rep). */
    void setPass(int pass) { pass_ = pass; }

    /** Open a span under the innermost open span. */
    Scope
    scope(const char *name)
    {
        if (!on_)
            return Scope(nullptr, -1);
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.pass = pass_;
        s.startNs = nowNs();
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return Scope(this, stack_.back());
    }

    /** Charge @p ns of per-request callback time to the innermost
     *  open span and, in a measured pass, to accumulator @p name. */
    void
    charge(const char *name, int64_t ns)
    {
        if (!stack_.empty())
            spans_[static_cast<size_t>(stack_.back())].accumNs += ns;
        if (pass_ < 0)
            return;
        Accumulator &a = accums_[name];
        a.ns += ns;
        a.calls += 1;
    }

    const std::map<std::string, Accumulator> &accumulators() const
    {
        return accums_;
    }

    /** Summed duration (ms) of spans named @p name, per measured pass
     *  (one entry per pass in [0, passes)). */
    std::vector<double>
    perPassMs(const std::string &name, int passes) const
    {
        std::vector<double> out(static_cast<size_t>(std::max(passes, 0)),
                                0.0);
        for (const Span &s : spans_)
            if (s.pass >= 0 && s.pass < passes && name == s.name)
                out[static_cast<size_t>(s.pass)] +=
                    static_cast<double>(s.endNs - s.startNs) / 1e6;
        return out;
    }

    /** Summed duration (ms) of spans named @p name, per set-up
     *  repetition, in repetition order. */
    std::vector<double>
    perSetupMs(const std::string &name) const
    {
        std::map<int, double> byRep;
        for (const Span &s : spans_)
            if (s.pass <= -2 && name == s.name)
                byRep[-2 - s.pass] +=
                    static_cast<double>(s.endNs - s.startNs) / 1e6;
        std::vector<double> out;
        for (const auto &[rep, ms] : byRep)
            out.push_back(ms);
        return out;
    }

    /**
     * Self time per span name over the measured passes: duration minus
     * child spans minus accumulator time charged inside. Accumulators
     * appear as their own rows. Rows sum to the measured passes' wall
     * time exactly (the root "pass" span's self time is the
     * benchmark's own code between layer calls).
     */
    bw::Json
    selfTimeTable(double *pass_self_pct) const
    {
        std::vector<int64_t> childNs(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
        std::map<std::string, std::pair<int64_t, uint64_t>> rows;
        int64_t wall = 0;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.pass < 0)
                continue;
            int64_t dur = s.endNs - s.startNs;
            if (s.parent < 0)
                wall += dur;
            auto &row = rows[s.name];
            row.first += dur - childNs[i] - s.accumNs;
            row.second += 1;
        }
        for (const auto &[name, a] : accums_) {
            auto &row = rows[name];
            row.first += a.ns;
            row.second += a.calls;
        }
        bw::Json table = bw::Json::array();
        for (const auto &[name, row] : rows) {
            bw::Json r = bw::Json::object();
            r.set("layer", name);
            r.set("calls", row.second);
            r.set("self_ms", static_cast<double>(row.first) / 1e6);
            r.set("share_pct", wall > 0 ? 100.0 *
                                              static_cast<double>(row.first) /
                                              static_cast<double>(wall)
                                        : 0.0);
            table.push(std::move(r));
        }
        if (pass_self_pct) {
            auto it = rows.find("pass");
            *pass_self_pct =
                wall > 0 && it != rows.end()
                    ? 100.0 * static_cast<double>(it->second.first) /
                          static_cast<double>(wall)
                    : 0.0;
        }
        return table;
    }

    /**
     * The spans as a Chrome trace document: the obs::chromeTraceJson
     * skeleton (metadata, display unit) plus one complete ("X") event
     * per span on a single host-thread track, microsecond timestamps
     * relative to the first span.
     */
    bw::Json
    chromeTrace(const bw::Json &self_table) const
    {
        bw::obs::EventTrace empty(1);
        bw::Json doc = bw::obs::chromeTraceJson(empty, 1.0);
        int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        bw::Json events = bw::Json::array();
        bw::Json nm_args = bw::Json::object();
        nm_args.set("name", "perfbench host thread");
        bw::Json nm = bw::Json::object();
        nm.set("name", "thread_name");
        nm.set("ph", "M");
        nm.set("pid", 1);
        nm.set("tid", 1);
        nm.set("args", std::move(nm_args));
        events.push(std::move(nm));
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::string layer(s.name);
            layer = layer.substr(0, layer.find('.'));
            bw::Json args = bw::Json::object();
            args.set("id", static_cast<uint64_t>(i));
            args.set("parent", static_cast<int64_t>(s.parent));
            args.set("pass", static_cast<int64_t>(s.pass));
            bw::Json ev = bw::Json::object();
            ev.set("name", s.name);
            ev.set("cat", layer);
            ev.set("ph", "X");
            ev.set("ts", static_cast<double>(s.startNs - t0) / 1e3);
            ev.set("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            ev.set("pid", 1);
            ev.set("tid", 1);
            ev.set("args", std::move(args));
            events.push(std::move(ev));
        }
        doc.set("traceEvents", std::move(events));
        bw::Json other = bw::Json::object();
        other.set("tool", "perfbench");
        other.set("spans", static_cast<uint64_t>(spans_.size()));
        other.set("self_time", self_table);
        doc.set("otherData", std::move(other));
        return doc;
    }

  private:
    void
    close(int idx)
    {
        spans_[static_cast<size_t>(idx)].endNs = nowNs();
        stack_.pop_back();
    }

    bool on_;
    int pass_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, Accumulator> accums_;
};

} // namespace perfbench

#endif // BW_PERFBENCH_HOST_TRACE_H
