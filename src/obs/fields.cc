#include "obs/fields.h"

#include "common/logging.h"
#include "obs/route.h"

namespace bw {
namespace obs {

namespace {

bool
isUint(const Json &v)
{
    return v.type() == Json::Type::Int && v.asInt() >= 0;
}

/// Null when @p v holds @p t, else what @p t requires.
const char *
violation(const Json &v, const FieldType &t)
{
    using namespace field;
    bool str = v.type() == Json::Type::String;
    bool ok = false;
    switch (t.kind) {
      case Uint: return isUint(v) ? nullptr : "a non-negative integer";
      case Pos:
        return isUint(v) && v.asInt() > 0 ? nullptr : "a positive integer";
      case Int: return v.type() == Json::Type::Int ? nullptr : "an integer";
      case Num: return v.isNumber() ? nullptr : "a number";
      case PosNum:
        return v.isNumber() && v.asDouble() > 0 ? nullptr
                                                 : "a positive number";
      case Frac:
        ok = v.isNumber() && v.asDouble() > 0 && v.asDouble() < 1;
        return ok ? nullptr : "a number in (0, 1)";
      case Bool: return v.type() == Json::Type::Bool ? nullptr : "a boolean";
      case Str:
        return str && !v.asString().empty() ? nullptr : "a non-empty string";
      case Arr: return v.type() == Json::Type::Array ? nullptr : "an array";
      case Obj: return v.type() == Json::Type::Object ? nullptr : "an object";
      case Counts:
        ok = v.type() == Json::Type::Array;
        for (size_t i = 0; ok && i < v.size(); ++i)
            ok = isUint(v.at(i));
        return ok ? nullptr : "an array of non-negative integers";
      case TagKind: return str && v.asString() == t.tag ? nullptr : t.tag;
      case NameKind:
        return str && t.known(v.asString()) ? nullptr : "a known name";
    }
    return "valid";
}

} // namespace

Status
checkFields(const Json &obj, std::initializer_list<FieldSpec> fields)
{
    if (obj.type() != Json::Type::Object)
        return Status::invalidArgument("not a JSON object");
    for (const FieldSpec &f : fields) {
        const Json *v = obj.find(f.key);
        if (!v && f.optional)
            continue;
        if (!v)
            return Status::invalidArgument(
                detail::format("missing field '%s'", f.key));
        if (const char *want = violation(*v, f.type))
            return Status::invalidArgument(
                detail::format("field '%s' is not %s", f.key, want));
    }
    return Status();
}

Status
prefixed(const std::string &where, const Status &st)
{
    if (st.ok())
        return st;
    return Status::invalidArgument(where + ": " + st.message());
}

// The route row's check (obs/route.h) lives beside the checker it uses.
Status
tallyRouteRow(const Json &row, int64_t engines, RouteTally *tally)
{
    Status st = BW_CHECK_FIELDS(row, BW_ROUTE_ROW_FIELDS, _);
    if (!st.ok())
        return st;
    int64_t engine = row.find("engine")->asInt();
    if (engine < -2 || engine >= engines)
        return Status::invalidArgument(detail::format(
            "engine %lld out of range [-2, %lld)",
            static_cast<long long>(engine),
            static_cast<long long>(engines)));
    tally->add(static_cast<int32_t>(engine),
               static_cast<uint32_t>(row.find("class")->asInt()));
    return Status();
}

Json
countsJson(const std::vector<uint64_t> &counts)
{
    Json a = Json::array();
    for (uint64_t c : counts)
        a.push(c);
    return a;
}

} // namespace obs
} // namespace bw
