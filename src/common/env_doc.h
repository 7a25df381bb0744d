/**
 * @file
 * The single source of truth for every BW_* environment variable the
 * library and its example binaries honor, and the library's one
 * checked reader of them. `serve_engine --help` and /debug/config
 * render from this list, and a tier-1 test
 * (EnvDoc.ListMatchesEveryReadAndTheReadmeTable) holds every BW_* read
 * in src/, examples/ and bench/ and the README's "Environment
 * variables" table to it. That test also holds env_doc.cc to being the
 * only file in src/ that reads the process environment.
 */

#ifndef BW_COMMON_ENV_DOC_H
#define BW_COMMON_ENV_DOC_H

#include <cfloat>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace bw {

/** One documented environment variable. */
struct EnvVarDoc
{
    const char *name; //!< e.g. "BW_SERVE_REPLICAS"
    const char *help; //!< one-sentence effect description
};

/** The raw text of environment variable @p name; nullptr when unset. */
const char *envText(const char *name);

/** Parse @p text as a whole unsigned decimal integer in [@p lo, @p hi]
 *  into @p out: digits only, with no sign, space, fraction or exponent.
 *  False (and @p out untouched) for anything else. */
bool parseUnsigned(const char *text, uint64_t lo, uint64_t hi,
                   uint64_t *out);

/**
 * Set @p field from environment variable @p name when it holds a finite
 * number in [@p lo, @p hi]. Unset or empty leaves @p field as it is.
 * Any other text (non-numeric, trailing garbage, NaN, infinity, out of
 * range) leaves it too, with one BW_WARN naming the variable, once per
 * variable and value in a process.
 */
void envDouble(const char *name, double *field, double lo = -DBL_MAX,
               double hi = DBL_MAX);

namespace detail {
bool envUnsigned(const char *name, uint64_t lo, uint64_t hi,
                 uint64_t *out);
} // namespace detail

/** Set the unsigned @p field from environment variable @p name when it
 *  holds a parseUnsigned() integer in [@p lo, largest T]. Rejected text
 *  warns and leaves @p field as envDouble() does. */
template <typename T>
void
envUnsigned(const char *name, T *field, uint64_t lo = 0)
{
    static_assert(std::is_unsigned_v<T>, "unsigned fields only");
    uint64_t v;
    if (detail::envUnsigned(name, lo, std::numeric_limits<T>::max(), &v))
        *field = static_cast<T>(v);
}

/** All documented BW_* variables, in documentation order. */
const std::vector<EnvVarDoc> &envVarDocs();

/**
 * Render the table as indented wrapped text for a --help screen:
 * variable name, newline, wrapped description at @p width columns.
 */
std::string renderEnvVarHelp(unsigned width = 78);

} // namespace bw

#endif // BW_COMMON_ENV_DOC_H
