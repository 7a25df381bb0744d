/**
 * @file
 * Export field tables: each bw.* export record declares its fields once,
 * and its writer and its validator are two expansions of that one list.
 *
 * A record's table is an X-macro next to its type,
 *
 *   #define BW_FOO_FIELDS(N, r)                   \
 *       N("seq", r.seq, Uint, always)             \
 *       N("chains", r.n, Pos, when(r.n > 0))
 *
 * one N(key, value, type, presence) row per field, in export order:
 *
 *   - value is the writer's expression (dropped by the validator);
 *   - type names a field:: kind below — the JSON type and range the
 *     validator requires (dropped by the writer);
 *   - presence is `always`, or `when(cond)` for a field the writer
 *     emits only when cond holds and the validator checks only when it
 *     is present.
 *
 * BW_FIELD_SET expands a row into `out.set(key, value)` — the
 * straight-line Json::set calls a hand-written writer makes — and
 * BW_FIELD_SPEC into one FieldSpec for checkFields(), the one checker of
 * presence, type and range. Rules that span fields or records (counter
 * conservation, ordering, nesting, derived values) stay hand-written in
 * each validator.
 */

#ifndef BW_OBS_FIELDS_H
#define BW_OBS_FIELDS_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace bw {
namespace obs {

/** True when @p name is one of the @p end names @p nameOf gives. */
template <typename E>
bool
knownName(const std::string &name, const char *(*nameOf)(E), E end)
{
    for (int i = 0; i < static_cast<int>(end); ++i) {
        if (name == nameOf(static_cast<E>(i)))
            return true;
    }
    return false;
}

/** The type column's vocabulary. */
namespace field {
/**
 * Uint: integer >= 0; Pos: integer >= 1; Int: any integer; Num: any
 * number; PosNum: number > 0; Frac: number in (0, 1); Str: non-empty
 * string; Counts: array of integers >= 0; Tag(t): the string t (a
 * schema tag); Name(known): a string @p known accepts (an enum's names).
 */
enum Kind : uint8_t
{
    Uint, Pos, Int, Num, PosNum, Frac, Bool, Str, Arr, Obj, Counts,
    TagKind, NameKind
};
} // namespace field

/** The JSON type and range one field must hold. */
struct FieldType
{
    field::Kind kind;
    const char *tag = nullptr;                    //!< TagKind: the string
    bool (*known)(const std::string &) = nullptr; //!< NameKind: the names
};

namespace field {
constexpr FieldType
Tag(const char *tag)
{
    return {TagKind, tag};
}

constexpr FieldType
Name(bool (*known)(const std::string &))
{
    return {NameKind, nullptr, known};
}
} // namespace field

/** One table row as the validator sees it. */
struct FieldSpec
{
    const char *key;
    FieldType type;
    bool optional; //!< `when(...)` presence: checked only if present
};

/**
 * Check @p obj — which must be a JSON object — against @p fields in
 * order: every non-optional field present, every present field of its
 * declared type and range. Returns OK or InvalidArgument naming the
 * first violation ("missing field 'k'", "field 'k' is not ...").
 */
Status checkFields(const Json &obj, std::initializer_list<FieldSpec> fields);

/** @p st with "@p where: " before its message; OK passes through. */
Status prefixed(const std::string &where, const Status &st);

/** @p counts as a JSON array of integers (a Counts field's value). */
Json countsJson(const std::vector<uint64_t> &counts);

} // namespace obs
} // namespace bw

#define BW_FIELD_WRITTEN_always true
#define BW_FIELD_WRITTEN_when(cond) (cond)
#define BW_FIELD_OPTIONAL_always false
#define BW_FIELD_OPTIONAL_when(cond) true

/** Writer expansion: set one row's field on the Json object `out`. */
#define BW_FIELD_SET(key, value, type, presence)                         \
    if (BW_FIELD_WRITTEN_##presence)                                     \
        out.set(key, value);

/** Validator expansion: one row's FieldSpec, for a braced list. */
#define BW_FIELD_SPEC(key, value, type, presence)                        \
    ::bw::obs::FieldSpec{key, {::bw::obs::field::type},                  \
                         BW_FIELD_OPTIONAL_##presence},

/** A new Json object holding TABLE's fields for the trailing table
 *  arguments. A table's own value column names a helper function for a
 *  nested object instead: this macro does not nest in itself. */
#define BW_FIELDS_JSON(TABLE, ...)                                       \
    [&] {                                                                \
        ::bw::Json out = ::bw::Json::object();                           \
        TABLE(BW_FIELD_SET __VA_OPT__(, ) __VA_ARGS__)                   \
        return out;                                                      \
    }()

/** checkFields(@p obj) against TABLE (value arguments may be `_`). */
#define BW_CHECK_FIELDS(obj, TABLE, ...)                                 \
    ::bw::obs::checkFields(obj,                                          \
                           {TABLE(BW_FIELD_SPEC __VA_OPT__(, ) __VA_ARGS__)})

#endif // BW_OBS_FIELDS_H
