#include "serve/slo.h"

#include <algorithm>
#include <utility>

#include "common/env_doc.h"
#include "common/logging.h"

namespace bw {
namespace serve {

namespace {

constexpr const char *kSchema = "bw.slo/1";

} // namespace

std::vector<SloClassSpec>
SloOptions::defaultClasses()
{
    return {
        {"interactive", 10.0, 5.0},
        {"standard", 100.0, 50.0},
        {"best_effort", 0.0, 500.0},
    };
}

SloOptions
SloOptions::fromEnv(SloOptions base)
{
    double lat =
        envDouble("BW_SLO_LATENCY_OBJECTIVE", base.latencyObjective);
    if (lat > 0 && lat < 1)
        base.latencyObjective = lat;
    double avail = envDouble("BW_SLO_AVAILABILITY_OBJECTIVE",
                             base.availabilityObjective);
    if (avail > 0 && avail < 1)
        base.availabilityObjective = avail;
    double fast_s = envDouble("BW_SLO_FAST_WINDOW_S", 0);
    if (fast_s > 0)
        base.fastWindowUs = static_cast<uint64_t>(fast_s * 1e6);
    double slow_s = envDouble("BW_SLO_SLOW_WINDOW_S", 0);
    if (slow_s > 0)
        base.slowWindowUs = static_cast<uint64_t>(slow_s * 1e6);
    return base;
}

SloOptions
SloOptions::fromEnv()
{
    return fromEnv(SloOptions{});
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
    finishWindow(ev.latencyFast, opts.latencyObjective);
    finishWindow(ev.latencySlow, opts.latencyObjective);
    finishWindow(ev.availFast, opts.availabilityObjective);
    finishWindow(ev.availSlow, opts.availabilityObjective);
    ev.latencyFiring = ev.latencyFast.burnRate > opts.pageBurnRate &&
                       ev.latencySlow.burnRate > opts.pageBurnRate;
    ev.availabilityFiring = ev.availFast.burnRate > opts.pageBurnRate &&
                            ev.availSlow.burnRate > opts.pageBurnRate;
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

SloBuckets::Sample
SloBuckets::record(size_t cls, uint64_t t_us, double latency_ms,
                   bool available)
{
    ClassState &cs = classes_[cls];
    if (t_us < cs.curLoUs || t_us >= cs.curHiUs) {
        // Into another bucket: the only path that divides.
        uint64_t bucket = t_us / bucketUs_;
        cs.curSlot = static_cast<size_t>(bucket % cs.ring.size());
        cs.curLoUs = bucket * bucketUs_;
        cs.curHiUs = cs.curLoUs + bucketUs_;
        if (cs.tag[cs.curSlot] != bucket) {
            cs.ring[cs.curSlot] = Bucket{};
            cs.tag[cs.curSlot] = bucket;
        }
    }
    Bucket &b = cs.ring[cs.curSlot];
    ++cs.requests;
    highWaterUs_ = std::max(highWaterUs_, t_us);
    if (!available) {
        ++b.availBad;
        ++cs.availabilityBreaches;
        return Sample::Unavailable;
    }
    ++b.availGood;
    if (latency_ms <= cs.latencyTargetMs) {
        ++b.latGood;
        return Sample::Good;
    }
    ++b.latBad;
    ++cs.latencyBreaches;
    return Sample::LatencyBreach;
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
            ev.latencyFast = evalWindow(cs, opts.fastWindowUs, true);
            ev.latencySlow = evalWindow(cs, opts.slowWindowUs, true);
            ev.availFast = evalWindow(cs, opts.fastWindowUs, false);
            ev.availSlow = evalWindow(cs, opts.slowWindowUs, false);
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

size_t
SloMonitor::classOf(double deadline_ms) const
{
    size_t catch_all = opts_.classes.size() - 1;
    for (size_t c = 0; c < opts_.classes.size(); ++c) {
        double bound = opts_.classes[c].maxDeadlineMs;
        if (bound <= 0) {
            catch_all = c; // explicit catch-all
            continue;
        }
        if (deadline_ms > 0 && deadline_ms <= bound)
            return c;
    }
    return catch_all;
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
windowJson(const SloWindowEval &ev)
{
    Json j = Json::object();
    j.set("good", ev.good);
    j.set("bad", ev.bad);
    j.set("bad_fraction", ev.badFraction);
    j.set("burn_rate", ev.burnRate);
    return j;
}

} // namespace

Json
sloHeaderJson(const SloOptions &opts, uint64_t evaluated_at_us)
{
    Json doc = Json::object();
    doc.set("schema", kSchema);
    Json obj = Json::object();
    obj.set("latency", opts.latencyObjective);
    obj.set("availability", opts.availabilityObjective);
    doc.set("objectives", std::move(obj));
    Json win = Json::object();
    win.set("fast_us", opts.fastWindowUs);
    win.set("slow_us", opts.slowWindowUs);
    win.set("bucket_us", opts.bucketUs);
    doc.set("windows", std::move(win));
    doc.set("page_burn_rate", opts.pageBurnRate);
    doc.set("evaluated_at_us", evaluated_at_us);
    return doc;
}

Json
sloClassesJson(const SloOptions &opts,
               const std::vector<SloClassEval> &evals)
{
    Json classes = Json::array();
    for (size_t c = 0; c < evals.size(); ++c) {
        const SloClassEval &ev = evals[c];
        Json j = Json::object();
        j.set("name", ev.name);
        if (opts.classes[c].maxDeadlineMs > 0)
            j.set("max_deadline_ms", opts.classes[c].maxDeadlineMs);
        j.set("latency_target_ms", opts.classes[c].latencyTargetMs);
        j.set("requests", ev.requests);
        j.set("latency_breaches", ev.latencyBreaches);
        j.set("availability_breaches", ev.availabilityBreaches);
        Json lat = Json::object();
        lat.set("fast", windowJson(ev.latencyFast));
        lat.set("slow", windowJson(ev.latencySlow));
        lat.set("firing", ev.latencyFiring);
        j.set("latency", std::move(lat));
        Json avail = Json::object();
        avail.set("fast", windowJson(ev.availFast));
        avail.set("slow", windowJson(ev.availSlow));
        avail.set("firing", ev.availabilityFiring);
        j.set("availability", std::move(avail));
        classes.push(std::move(j));
    }
    return classes;
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
    for (const SloClassEval &ev : evals) {
        if (!registry_)
            break;
        const struct
        {
            const char *slo;
            const SloWindowEval &fast, &slow;
            bool firing;
        } slis[] = {
            {"latency", ev.latencyFast, ev.latencySlow, ev.latencyFiring},
            {"availability", ev.availFast, ev.availSlow,
             ev.availabilityFiring}};
        for (const auto &sli : slis) {
            for (const auto &[window, w] :
                 {std::pair<const char *, const SloWindowEval *>{
                      "fast", &sli.fast},
                  {"slow", &sli.slow}}) {
                registry_
                    ->gauge("bw_slo_burn_rate",
                            "SLO burn rate over the trailing window "
                            "(1.0 = budget consumed exactly at the "
                            "sustainable rate)",
                            {{"class", ev.name},
                             {"slo", sli.slo},
                             {"window", window}})
                    .set(w->burnRate);
            }
            registry_
                ->gauge("bw_slo_firing",
                        "1 when both window burn rates exceed the page "
                        "threshold",
                        {{"class", ev.name}, {"slo", sli.slo}})
                .set(sli.firing ? 1.0 : 0.0);
        }
    }

    Json doc = sloHeaderJson(opts_, high_us);
    doc.set("classes", sloClassesJson(opts_, evals));
    return doc;
}

// --- Validation ---

namespace {

Status
failSlo(const std::string &why)
{
    return Status::invalidArgument("slo document: " + why);
}

/// Shape-check one window member and read its counts into @p ev.
Status
readWindowEval(const Json *w, const std::string &where, SloWindowEval *ev)
{
    if (!w || w->type() != Json::Type::Object)
        return failSlo(where + " is not an object");
    const Json *good = w->find("good");
    const Json *bad = w->find("bad");
    if (!good || good->type() != Json::Type::Int || good->asInt() < 0 ||
        !bad || bad->type() != Json::Type::Int || bad->asInt() < 0)
        return failSlo(where + " missing non-negative good/bad counts");
    const Json *frac = w->find("bad_fraction");
    const Json *burn = w->find("burn_rate");
    if (!frac || !frac->isNumber() || !burn || !burn->isNumber())
        return failSlo(where + " missing bad_fraction/burn_rate");
    ev->good = static_cast<uint64_t>(good->asInt());
    ev->bad = static_cast<uint64_t>(bad->asInt());
    return Status();
}

/// Shape-check one SLI member and read both windows' counts.
Status
readSli(const Json *sli, const std::string &where, SloWindowEval *fast,
        SloWindowEval *slow)
{
    if (!sli || sli->type() != Json::Type::Object)
        return failSlo(where + " is not an object");
    Status st = readWindowEval(sli->find("fast"), where + ".fast", fast);
    if (!st.ok())
        return st;
    st = readWindowEval(sli->find("slow"), where + ".slow", slow);
    if (!st.ok())
        return st;
    const Json *firing = sli->find("firing");
    if (!firing || firing->type() != Json::Type::Bool)
        return failSlo(where + " missing boolean firing");
    return Status();
}

/// Compare a shape-checked SLI member's derived members with the
/// finishClassEval results for its counts (exact: %.17g round-trips).
Status
checkDerivedSli(const Json &sli, const std::string &where,
                const SloWindowEval &fast, const SloWindowEval &slow,
                bool firing)
{
    const struct
    {
        const char *name;
        const SloWindowEval *ev;
    } windows[] = {{"fast", &fast}, {"slow", &slow}};
    for (const auto &w : windows) {
        const Json &j = *sli.find(w.name);
        if (j.find("bad_fraction")->asDouble() != w.ev->badFraction)
            return failSlo(where + "." + w.name +
                           " bad_fraction is not bad / (good + bad)");
        if (j.find("burn_rate")->asDouble() != w.ev->burnRate)
            return failSlo(where + "." + w.name +
                           " burn_rate is not bad_fraction / "
                           "(1 - objective)");
    }
    if (sli.find("firing")->asBool() != firing)
        return failSlo(where + " firing disagrees with the two burn "
                               "rates and page_burn_rate");
    return Status();
}

} // namespace

Status
validateSloJson(const Json &doc)
{
    if (doc.type() != Json::Type::Object)
        return failSlo("not an object");
    const Json *schema = doc.find("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kSchema)
        return failSlo(std::string("schema is not '") + kSchema + "'");
    const Json *objectives = doc.find("objectives");
    if (!objectives || objectives->type() != Json::Type::Object)
        return failSlo("missing objectives object");
    for (const char *key : {"latency", "availability"}) {
        const Json *o = objectives->find(key);
        if (!o || !o->isNumber() || o->asDouble() <= 0 ||
            o->asDouble() >= 1)
            return failSlo(std::string("objective '") + key +
                           "' not in (0, 1)");
    }
    SloOptions opts;
    opts.latencyObjective = objectives->find("latency")->asDouble();
    opts.availabilityObjective =
        objectives->find("availability")->asDouble();
    const Json *page = doc.find("page_burn_rate");
    if (!page || !page->isNumber() || page->asDouble() <= 0)
        return failSlo("missing positive page_burn_rate");
    opts.pageBurnRate = page->asDouble();
    const Json *windows = doc.find("windows");
    if (!windows || windows->type() != Json::Type::Object)
        return failSlo("missing windows object");
    const Json *fast = windows->find("fast_us");
    const Json *slow = windows->find("slow_us");
    if (!fast || fast->type() != Json::Type::Int || fast->asInt() <= 0 ||
        !slow || slow->type() != Json::Type::Int || slow->asInt() <= 0)
        return failSlo("windows missing positive fast_us/slow_us");
    if (slow->asInt() < fast->asInt())
        return failSlo("slow window shorter than fast window");
    const Json *classes = doc.find("classes");
    if (!classes || classes->type() != Json::Type::Array ||
        classes->size() == 0)
        return failSlo("missing non-empty classes array");
    for (size_t i = 0; i < classes->size(); ++i) {
        const Json &c = classes->at(i);
        if (c.type() != Json::Type::Object)
            return failSlo("class entry is not an object");
        const Json *name = c.find("name");
        if (!name || name->type() != Json::Type::String ||
            name->asString().empty())
            return failSlo("class entry missing name");
        const std::string &cls = name->asString();
        const Json *target = c.find("latency_target_ms");
        if (!target || !target->isNumber() || target->asDouble() <= 0)
            return failSlo("class '" + cls +
                           "' missing positive latency_target_ms");
        for (const char *key :
             {"requests", "latency_breaches", "availability_breaches"}) {
            const Json *v = c.find(key);
            if (!v || v->type() != Json::Type::Int || v->asInt() < 0)
                return failSlo("class '" + cls + "' missing "
                               "non-negative integer '" + key + "'");
        }
        const Json *lat = c.find("latency");
        const Json *avail = c.find("availability");
        SloClassEval ev;
        Status st = readSli(lat, cls + ".latency", &ev.latencyFast,
                            &ev.latencySlow);
        if (!st.ok())
            return st;
        st = readSli(avail, cls + ".availability", &ev.availFast,
                     &ev.availSlow);
        if (!st.ok())
            return st;
        finishClassEval(ev, opts);
        st = checkDerivedSli(*lat, cls + ".latency", ev.latencyFast,
                             ev.latencySlow, ev.latencyFiring);
        if (!st.ok())
            return st;
        st = checkDerivedSli(*avail, cls + ".availability", ev.availFast,
                             ev.availSlow, ev.availabilityFiring);
        if (!st.ok())
            return st;
    }
    return Status();
}

} // namespace serve
} // namespace bw
