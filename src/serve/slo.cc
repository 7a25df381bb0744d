#include "serve/slo.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace bw {
namespace serve {

std::vector<SloClassSpec>
SloOptions::defaultClasses()
{
    return {
        {"interactive", 10.0, 5.0},
        {"standard", 100.0, 50.0},
        {"best_effort", 0.0, 500.0},
    };
}

namespace {

void
finishWindow(SloWindowEval &ev, double objective)
{
    uint64_t total = ev.good + ev.bad;
    ev.badFraction =
        total > 0 ? static_cast<double>(ev.bad) /
                        static_cast<double>(total)
                  : 0.0;
    double budget = 1.0 - objective;
    ev.burnRate = budget > 0 ? ev.badFraction / budget : 0.0;
}

} // namespace

void
finishClassEval(SloClassEval &ev, const SloOptions &opts)
{
    for (auto [sli, objective] :
         {std::pair{&ev.latency, opts.latencyObjective},
          {&ev.availability, opts.availabilityObjective}}) {
        finishWindow(sli->fast, objective);
        finishWindow(sli->slow, objective);
        sli->firing = sli->fast.burnRate > opts.pageBurnRate &&
                      sli->slow.burnRate > opts.pageBurnRate;
    }
}

SloBuckets::SloBuckets(const SloOptions &opts)
    : bucketUs_(opts.bucketUs), classes_(opts.classes.size())
{
    size_t slots =
        static_cast<size_t>((opts.slowWindowUs + bucketUs_ - 1) / bucketUs_);
    for (size_t c = 0; c < classes_.size(); ++c) {
        classes_[c].ring.resize(slots);
        classes_[c].tag.assign(slots, ~0ull);
        classes_[c].latencyTargetMs = opts.classes[c].latencyTargetMs;
    }
}

SloWindowEval
SloBuckets::evalWindow(const ClassState &cs, uint64_t window_us,
                       bool latency) const
{
    SloWindowEval ev;
    uint64_t high_bucket = highWaterUs_ / bucketUs_;
    uint64_t span = std::max<uint64_t>(1, window_us / bucketUs_);
    uint64_t first =
        high_bucket >= span - 1 ? high_bucket - (span - 1) : 0;
    for (size_t slot = 0; slot < cs.ring.size(); ++slot) {
        uint64_t tag = cs.tag[slot];
        if (tag == ~0ull || tag < first || tag > high_bucket)
            continue;
        const Bucket &b = cs.ring[slot];
        ev.good += latency ? b.latGood : b.availGood;
        ev.bad += latency ? b.latBad : b.availBad;
    }
    return ev;
}

std::vector<SloClassEval>
SloBuckets::evaluate(const SloOptions &opts) const
{
    std::vector<SloClassEval> out(opts.classes.size());
    for (size_t c = 0; c < out.size(); ++c) {
        SloClassEval &ev = out[c];
        ev.name = opts.classes[c].name;
        if (c < classes_.size()) {
            const ClassState &cs = classes_[c];
            ev.requests = cs.requests;
            ev.latencyBreaches = cs.latencyBreaches;
            ev.availabilityBreaches = cs.availabilityBreaches;
            ev.latency.fast = evalWindow(cs, opts.fastWindowUs, true);
            ev.latency.slow = evalWindow(cs, opts.slowWindowUs, true);
            ev.availability.fast = evalWindow(cs, opts.fastWindowUs, false);
            ev.availability.slow = evalWindow(cs, opts.slowWindowUs, false);
        }
        finishClassEval(ev, opts);
    }
    return out;
}

void
SloBuckets::clear()
{
    for (ClassState &cs : classes_) {
        std::fill(cs.ring.begin(), cs.ring.end(), Bucket{});
        std::fill(cs.tag.begin(), cs.tag.end(), ~0ull);
        cs.requests = cs.latencyBreaches = cs.availabilityBreaches = 0;
        cs.curLoUs = cs.curHiUs = 0;
    }
    highWaterUs_ = 0;
}

SloMonitor::SloMonitor(SloOptions opts) : opts_(std::move(opts))
{
    if (opts_.classes.empty())
        opts_.classes = SloOptions::defaultClasses();
    opts_.bucketUs = std::max<uint64_t>(1, opts_.bucketUs);
    opts_.fastWindowUs = std::max(opts_.fastWindowUs, opts_.bucketUs);
    opts_.slowWindowUs = std::max(opts_.slowWindowUs, opts_.fastWindowUs);
    state_ = SloBuckets(opts_);
}

void
SloMonitor::bindMetrics(metrics::Registry *registry)
{
    std::lock_guard<std::mutex> lk(mu_);
    registry_ = registry;
    counters_.clear();
    if (!registry_)
        return;
    for (const SloClassSpec &spec : opts_.classes) {
        metrics::Labels labels{{"class", spec.name}};
        counters_.push_back(Counters{
            &registry_->counter("bw_slo_requests_total",
                                "Finished submissions per deadline class",
                                labels),
            &registry_->counter(
                "bw_slo_latency_breach_total",
                "Served requests that missed their class latency target",
                labels),
            &registry_->counter(
                "bw_slo_availability_breach_total",
                "Submissions not served successfully (rejected, expired, "
                "errored, cancelled)",
                labels)});
    }
}

void
SloMonitor::record(uint64_t t_us, double deadline_ms, double latency_ms,
                   bool available)
{
    size_t c = classOf(deadline_ms);
    std::lock_guard<std::mutex> lk(mu_);
    if (!state_.holdsRings())
        return; // a replay pass holds the buckets (take())
    SloBuckets::Sample s = state_.record(c, t_us, latency_ms, available);
    if (counters_.empty())
        return;
    counters_[c].requests->inc();
    if (s == SloBuckets::Sample::LatencyBreach)
        counters_[c].latencyBreach->inc();
    else if (s == SloBuckets::Sample::Unavailable)
        counters_[c].availBreach->inc();
}

std::vector<SloClassEval>
SloMonitor::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_.evaluate(opts_);
}

uint64_t
SloMonitor::highWaterUs() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_.highWaterUs();
}

void
SloMonitor::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    state_.clear();
}

SloBuckets
SloMonitor::take()
{
    std::lock_guard<std::mutex> lk(mu_);
    state_.clear();
    return std::exchange(state_, SloBuckets());
}

void
SloMonitor::restore(SloBuckets buckets)
{
    std::lock_guard<std::mutex> lk(mu_);
    state_ = std::move(buckets);
    if (counters_.empty())
        return;
    std::vector<SloClassEval> evals = state_.evaluate(opts_);
    for (size_t c = 0; c < counters_.size(); ++c) {
        counters_[c].requests->add(evals[c].requests);
        counters_[c].latencyBreach->add(evals[c].latencyBreaches);
        counters_[c].availBreach->add(evals[c].availabilityBreaches);
    }
}

namespace {

Json
windowJson(const SloWindowEval &w)
{
    return BW_FIELDS_JSON(BW_SLO_WINDOW_FIELDS, w);
}

Json
sliJson(const SloSliEval &sli)
{
    return BW_FIELDS_JSON(BW_SLO_SLI_FIELDS, sli);
}

Json
objectivesJson(const SloOptions &opts)
{
    return BW_FIELDS_JSON(BW_SLO_OBJECTIVE_FIELDS, opts);
}

Json
windowsJson(const SloOptions &opts)
{
    return BW_FIELDS_JSON(BW_SLO_WINDOWS_FIELDS, opts);
}

} // namespace

Json
sloDocJson(const SloOptions &opts, uint64_t evaluated_at_us,
           const std::vector<SloClassEval> &evals, uint64_t shards)
{
    Json classes = Json::array();
    for (size_t c = 0; c < evals.size(); ++c)
        classes.push(
            BW_FIELDS_JSON(BW_SLO_CLASS_FIELDS, opts.classes[c], evals[c]));
    return BW_FIELDS_JSON(BW_SLO_DOC_FIELDS, opts, evaluated_at_us, shards,
                          std::move(classes));
}

Json
SloMonitor::sloJson() const
{
    std::vector<SloClassEval> evals;
    uint64_t high_us;
    {
        std::lock_guard<std::mutex> lk(mu_);
        evals = state_.evaluate(opts_);
        high_us = state_.highWaterUs();
    }

    // Refresh the bound burn-rate gauges from this evaluation (the
    // scrape path lands here via the /slo.json handler).
    auto gauges = [this](const std::string &cls, const char *slo,
                         const SloSliEval &sli) {
        for (auto [window, w] :
             {std::pair{"fast", &sli.fast}, {"slow", &sli.slow}}) {
            registry_
                ->gauge("bw_slo_burn_rate",
                        "SLO burn rate over the trailing window (1.0 = "
                        "budget consumed exactly at the sustainable rate)",
                        {{"class", cls}, {"slo", slo}, {"window", window}})
                .set(w->burnRate);
        }
        registry_
            ->gauge("bw_slo_firing",
                    "1 when both window burn rates exceed the page "
                    "threshold",
                    {{"class", cls}, {"slo", slo}})
            .set(sli.firing ? 1.0 : 0.0);
    };
    for (const SloClassEval &ev : evals) {
        if (!registry_)
            break;
        gauges(ev.name, "latency", ev.latency);
        gauges(ev.name, "availability", ev.availability);
    }

    return sloDocJson(opts_, high_us, evals);
}

// --- Validation ---

namespace {

Status
failSlo(const std::string &why)
{
    return Status::invalidArgument("slo document: " + why);
}

/// Check SLI member @p key of class entry @p cls and its two windows,
/// reading the windows' counts into @p sli.
Status
readSli(const Json &cls, const char *key, SloSliEval *sli)
{
    const Json &j = *cls.find(key);
    Status st = obs::prefixed(key, BW_CHECK_FIELDS(j, BW_SLO_SLI_FIELDS, _));
    for (auto [name, w] :
         {std::pair{"fast", &sli->fast}, {"slow", &sli->slow}}) {
        if (!st.ok())
            return st;
        const Json &wj = *j.find(name);
        st = obs::prefixed(std::string(key) + "." + name,
                           BW_CHECK_FIELDS(wj, BW_SLO_WINDOW_FIELDS, _));
        if (st.ok()) {
            w->good = static_cast<uint64_t>(wj.find("good")->asInt());
            w->bad = static_cast<uint64_t>(wj.find("bad")->asInt());
        }
    }
    return st;
}

/// Compare checked SLI member @p key's derived members with @p sli,
/// finished from its counts (exact: %.17g round-trips).
Status
checkDerivedSli(const Json &cls, const char *key, const SloSliEval &sli)
{
    const Json &j = *cls.find(key);
    std::string where = cls.find("name")->asString() + "." + key;
    for (auto [name, w] :
         {std::pair{"fast", &sli.fast}, {"slow", &sli.slow}}) {
        const Json &wj = *j.find(name);
        if (wj.find("bad_fraction")->asDouble() != w->badFraction)
            return failSlo(where + "." + name +
                           " bad_fraction is not bad / (good + bad)");
        if (wj.find("burn_rate")->asDouble() != w->burnRate)
            return failSlo(where + "." + name +
                           " burn_rate is not bad_fraction / "
                           "(1 - objective)");
    }
    if (j.find("firing")->asBool() != sli.firing)
        return failSlo(where + " firing disagrees with the two burn rates "
                               "and page_burn_rate");
    return Status();
}

} // namespace

Status
validateSloJson(const Json &doc)
{
    Status st = BW_CHECK_FIELDS(doc, BW_SLO_DOC_FIELDS, _, _, _, _);
    if (st.ok())
        st = obs::prefixed("objectives",
                      BW_CHECK_FIELDS(*doc.find("objectives"),
                                      BW_SLO_OBJECTIVE_FIELDS, _));
    if (st.ok())
        st = obs::prefixed("windows", BW_CHECK_FIELDS(*doc.find("windows"),
                                                 BW_SLO_WINDOWS_FIELDS, _));
    if (!st.ok())
        return failSlo(st.message());
    const Json &windows = *doc.find("windows");
    if (windows.find("slow_us")->asInt() < windows.find("fast_us")->asInt())
        return failSlo("slow window shorter than fast window");
    SloOptions opts;
    opts.latencyObjective = doc.find("objectives")->find("latency")->asDouble();
    opts.availabilityObjective =
        doc.find("objectives")->find("availability")->asDouble();
    opts.pageBurnRate = doc.find("page_burn_rate")->asDouble();
    const Json &classes = *doc.find("classes");
    if (classes.size() == 0)
        return failSlo("no classes");
    for (size_t i = 0; i < classes.size(); ++i) {
        const Json &c = classes.at(i);
        SloClassEval ev;
        st = BW_CHECK_FIELDS(c, BW_SLO_CLASS_FIELDS, _, _);
        if (st.ok())
            st = readSli(c, "latency", &ev.latency);
        if (st.ok())
            st = readSli(c, "availability", &ev.availability);
        if (!st.ok())
            return failSlo(detail::format("class %zu: ", i) + st.message());
        finishClassEval(ev, opts);
        st = checkDerivedSli(c, "latency", ev.latency);
        if (st.ok())
            st = checkDerivedSli(c, "availability", ev.availability);
        if (!st.ok())
            return st;
    }
    return Status();
}

} // namespace serve
} // namespace bw
