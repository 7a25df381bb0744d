/**
 * @file
 * The single source of truth for every BW_* environment variable the
 * library and its example binaries honor. `serve_engine --help` and
 * /debug/config render from this list, and a tier-1 test
 * (EnvDoc.ListMatchesEveryReadAndTheReadmeTable) holds every BW_* read
 * in src/, examples/ and bench/ and the README's "Environment
 * variables" table to it.
 */

#ifndef BW_COMMON_ENV_DOC_H
#define BW_COMMON_ENV_DOC_H

#include <string>
#include <vector>

namespace bw {

/** One documented environment variable. */
struct EnvVarDoc
{
    const char *name; //!< e.g. "BW_SERVE_REPLICAS"
    const char *help; //!< one-sentence effect description
};

/** The value of environment variable @p name as a number, or
 *  @p fallback when it is unset or empty. */
double envDouble(const char *name, double fallback);

/** All documented BW_* variables, in documentation order. */
const std::vector<EnvVarDoc> &envVarDocs();

/**
 * Render the table as indented wrapped text for a --help screen:
 * variable name, newline, wrapped description at @p width columns.
 */
std::string renderEnvVarHelp(unsigned width = 78);

} // namespace bw

#endif // BW_COMMON_ENV_DOC_H
