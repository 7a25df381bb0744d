#include "obs/incident.h"

#include "common/logging.h"

namespace bw {
namespace obs {

const char *
incidentPhaseName(IncidentPhase p)
{
    switch (p) {
      case IncidentPhase::FaultInjected: return "fault_injected";
      case IncidentPhase::Detected: return "detected";
      case IncidentPhase::Evicted: return "evicted";
      case IncidentPhase::RewarmStarted: return "rewarm_started";
      case IncidentPhase::Recovered: return "recovered";
      default: BW_PANIC("bad IncidentPhase %d", static_cast<int>(p));
    }
}

Incident &
IncidentLog::at(uint64_t id)
{
    BW_ASSERT(id >= 1 && id <= log_.size(), "incident id %llu out of range",
              static_cast<unsigned long long>(id));
    return log_[id - 1];
}

uint64_t
IncidentLog::open(std::string cls, std::string shard, std::string group,
                  uint64_t t_us)
{
    Incident inc;
    inc.id = log_.size() + 1;
    inc.cls = std::move(cls);
    inc.shard = std::move(shard);
    inc.group = std::move(group);
    inc.events.push_back({IncidentPhase::FaultInjected, t_us});
    log_.push_back(std::move(inc));
    return log_.back().id;
}

void
IncidentLog::event(uint64_t id, IncidentPhase phase, uint64_t t_us)
{
    Incident &inc = at(id);
    // Virtual time never runs backwards; clamp defensively so a
    // rounding quirk can never produce an invalid export.
    if (!inc.events.empty() && t_us < inc.events.back().tUs)
        t_us = inc.events.back().tUs;
    inc.events.push_back({phase, t_us});
}

Json
incidentJson(const IncidentLog &log)
{
    Json list = Json::array();
    for (const Incident &inc : log.incidents()) {
        Json events = Json::array();
        for (const IncidentEvent &e : inc.events)
            events.push(BW_FIELDS_JSON(BW_INCIDENT_EVENT_FIELDS, e));
        list.push(BW_FIELDS_JSON(BW_INCIDENT_FIELDS, inc, std::move(events)));
    }
    return BW_FIELDS_JSON(BW_INCIDENT_DOC_FIELDS,
                          static_cast<uint64_t>(log.faults()),
                          std::move(list));
}

Status
validateIncidentJson(const Json &doc)
{
    Status st = BW_CHECK_FIELDS(doc, BW_INCIDENT_DOC_FIELDS, _, _);
    if (!st.ok())
        return prefixed("incident document", st);
    const Json &incidents = *doc.find("incidents");
    if (static_cast<uint64_t>(doc.find("faults")->asInt()) !=
        incidents.size())
        return Status::invalidArgument(
            "'faults' does not match the incidents array length");
    for (size_t i = 0; i < incidents.size(); ++i) {
        const Json &inc = incidents.at(i);
        auto fail = [i](const std::string &why) {
            return Status::invalidArgument(
                detail::format("incident %zu: %s", i, why.c_str()));
        };
        st = BW_CHECK_FIELDS(inc, BW_INCIDENT_FIELDS, _, _);
        if (!st.ok())
            return fail(st.message());
        const Json &events = *inc.find("events");
        if (events.size() == 0)
            return fail("no events");
        int64_t prev = -1;
        for (size_t e = 0; e < events.size(); ++e) {
            st = BW_CHECK_FIELDS(events.at(e), BW_INCIDENT_EVENT_FIELDS, _);
            if (!st.ok())
                return fail(detail::format("event %zu: ", e) + st.message());
            int64_t t = events.at(e).find("t_us")->asInt();
            if (t < prev)
                return fail(detail::format(
                    "event %zu stamp runs backwards in virtual time", e));
            prev = t;
        }
        const Json &first = events.at(0), &last = events.at(events.size() - 1);
        if (first.find("phase")->asString() != "fault_injected")
            return fail("first phase is not fault_injected");
        const std::string &terminal = last.find("phase")->asString();
        if (terminal != "recovered" && terminal != "evicted")
            return fail("terminal phase is not recovered or evicted (fault "
                        "left unresolved)");
        if (inc.find("mttr_us")->asInt() !=
            last.find("t_us")->asInt() - first.find("t_us")->asInt())
            return fail("mttr_us does not equal the first-to-last stamp gap");
    }
    return Status();
}

} // namespace obs
} // namespace bw
