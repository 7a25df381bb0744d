#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace bw {
namespace metrics {

const char *
metricTypeName(MetricType t)
{
    switch (t) {
      case MetricType::Counter: return "counter";
      case MetricType::Gauge: return "gauge";
      case MetricType::Histogram: return "histogram";
      default: BW_PANIC("bad MetricType %d", static_cast<int>(t));
    }
}

// --- Histogram ---

Histogram::Histogram(HistogramOptions opts) : opts_(opts)
{
    BW_ASSERT(opts_.lowest > 0 && opts_.highest > opts_.lowest &&
                  opts_.bucketsPerDecade > 0,
              "histogram needs 0 < lowest < highest and buckets per "
              "decade > 0");
    // Underflow bound first, then geometric boundaries until the range
    // is covered. Boundaries are precomputed once so bucketIndex() can
    // resolve edge values exactly against them (no log() round-trip
    // ambiguity at bucket boundaries).
    bounds_.push_back(opts_.lowest);
    for (unsigned i = 1; bounds_.back() < opts_.highest; ++i) {
        bounds_.push_back(opts_.lowest *
                          std::pow(10.0, static_cast<double>(i) /
                                             opts_.bucketsPerDecade));
    }
    for (auto &s : shards_) {
        s.counts =
            std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
        s.exemplars =
            std::vector<detail::ExemplarCell>(bounds_.size() + 1);
    }
}

size_t
Histogram::bucketIndex(double v) const
{
    if (!(v > bounds_.front()))
        return 0; // underflow (<= lowest), and NaN defensively
    if (v > bounds_.back())
        return bounds_.size(); // overflow (+Inf bucket)
    // Bucket i covers (bounds[i-1], bounds[i]]: first bound >= v.
    return static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
}

void
Histogram::record(double v)
{
    Shard &s = shards_[detail::shardSlot()];
    s.counts[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    detail::atomicAdd(s.sum, v);
    detail::atomicMax(s.maxValue, v);
}

void
Histogram::recordExemplar(double v, uint64_t trace_id)
{
    Shard &s = shards_[detail::shardSlot()];
    size_t b = bucketIndex(v);
    s.counts[b].fetch_add(1, std::memory_order_relaxed);
    detail::atomicAdd(s.sum, v);
    detail::atomicMax(s.maxValue, v);
    if (trace_id == 0)
        return;
    detail::ExemplarCell &cell = s.exemplars[b];
    if (cell.trace.load(std::memory_order_relaxed) == 0 ||
        v >= cell.value.load(std::memory_order_relaxed)) {
        cell.value.store(v, std::memory_order_relaxed);
        cell.trace.store(trace_id, std::memory_order_relaxed);
    }
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot out;
    out.bounds = bounds_;
    out.counts.assign(bounds_.size() + 1, 0);
    out.exemplars.assign(bounds_.size() + 1, Exemplar{});
    for (const Shard &s : shards_) {
        for (size_t i = 0; i < s.counts.size(); ++i)
            out.counts[i] += s.counts[i].load(std::memory_order_relaxed);
        for (size_t i = 0; i < s.exemplars.size(); ++i) {
            uint64_t trace =
                s.exemplars[i].trace.load(std::memory_order_relaxed);
            double value =
                s.exemplars[i].value.load(std::memory_order_relaxed);
            if (trace != 0 && (out.exemplars[i].traceId == 0 ||
                               value > out.exemplars[i].value)) {
                out.exemplars[i] = {value, trace};
            }
        }
        out.sum += s.sum.load(std::memory_order_relaxed);
        out.maxValue = std::max(
            out.maxValue, s.maxValue.load(std::memory_order_relaxed));
    }
    for (uint64_t c : out.counts)
        out.count += c;
    return out;
}

double
HistogramSnapshot::quantile(double pct) const
{
    if (count == 0)
        return 0.0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(count)));
    rank = std::clamp<uint64_t>(rank, 1, count);
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        if (cum >= rank) {
            // Overflow bucket has no finite upper bound; the max
            // observed sample is the tightest honest answer.
            return i < bounds.size() ? bounds[i] : maxValue;
        }
    }
    return maxValue;
}

double
HistogramSnapshot::bucketWidthBelow(double upper) const
{
    for (size_t i = 0; i < bounds.size(); ++i) {
        if (bounds[i] >= upper)
            return i == 0 ? bounds[0] : bounds[i] - bounds[i - 1];
    }
    return bounds.empty() ? 0.0
                          : bounds.back() - bounds[bounds.size() - 2];
}

// --- name validation ---

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name) {
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    }
    return true;
}

bool
validLabelName(const std::string &name)
{
    // Same as a metric name, minus the colon.
    return validMetricName(name) &&
           name.find(':') == std::string::npos;
}

// --- Registry ---

Registry::Family &
Registry::family(const std::string &name, const std::string &help,
                 MetricType type)
{
    for (auto &f : families_) {
        if (f->name == name) {
            if (f->type != type) {
                BW_FATAL("metric %s already registered as %s, not %s",
                         name.c_str(), metricTypeName(f->type),
                         metricTypeName(type));
            }
            return *f;
        }
    }
    if (!validMetricName(name))
        BW_FATAL("invalid metric name '%s'", name.c_str());
    auto f = std::make_unique<Family>();
    f->name = name;
    f->help = help;
    f->type = type;
    families_.push_back(std::move(f));
    return *families_.back();
}

Registry::Instance &
Registry::instance(Family &f, Labels labels)
{
    for (auto &i : f.instances) {
        if (i->labels == labels)
            return *i;
    }
    for (const auto &[k, v] : labels) {
        (void)v;
        if (!validLabelName(k))
            BW_FATAL("invalid label name '%s' on metric %s", k.c_str(),
                     f.name.c_str());
    }
    auto i = std::make_unique<Instance>();
    i->labels = std::move(labels);
    f.instances.push_back(std::move(i));
    return *f.instances.back();
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  Labels labels)
{
    std::lock_guard<std::mutex> lk(mu_);
    Instance &i = instance(family(name, help, MetricType::Counter),
                           std::move(labels));
    if (!i.counter)
        i.counter = std::make_unique<Counter>();
    return *i.counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                Labels labels)
{
    std::lock_guard<std::mutex> lk(mu_);
    Instance &i = instance(family(name, help, MetricType::Gauge),
                           std::move(labels));
    if (!i.gauge)
        i.gauge = std::make_unique<Gauge>();
    return *i.gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    HistogramOptions opts, Labels labels)
{
    std::lock_guard<std::mutex> lk(mu_);
    Instance &i = instance(family(name, help, MetricType::Histogram),
                           std::move(labels));
    if (!i.histogram)
        i.histogram = std::make_unique<Histogram>(opts);
    return *i.histogram;
}

std::vector<MetricSnapshot>
Registry::collect() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<MetricSnapshot> out;
    for (const auto &f : families_) {
        for (const auto &i : f->instances) {
            MetricSnapshot s;
            s.name = f->name;
            s.help = f->help;
            s.type = f->type;
            s.labels = i->labels;
            switch (f->type) {
              case MetricType::Counter:
                s.value = static_cast<double>(i->counter->value());
                break;
              case MetricType::Gauge:
                s.value = i->gauge->value();
                break;
              case MetricType::Histogram:
                s.hist = i->histogram->snapshot();
                break;
            }
            out.push_back(std::move(s));
        }
    }
    return out;
}

size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    size_t n = 0;
    for (const auto &f : families_)
        n += f->instances.size();
    return n;
}

} // namespace metrics
} // namespace bw
