#ifndef ANONSAFE_TOOLS_CLI_H_
#define ANONSAFE_TOOLS_CLI_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace anonsafe {

/// \brief Parsed command line: a subcommand, positional arguments, and
/// `--key=value` flags.
struct CliInvocation {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
};

/// \brief Parses argv-style tokens (excluding the program name).
/// Flags take the form `--key=value` or boolean `--key`; anything else is
/// positional. The first positional token is the subcommand.
/// Fails with InvalidArgument when no subcommand is present.
Result<CliInvocation> ParseCli(const std::vector<std::string>& args);

/// \brief Reads a double flag with a default; InvalidArgument on garbage.
Result<double> FlagAsDouble(const CliInvocation& cli, const std::string& key,
                            double default_value);

/// \brief Reads a uint64 flag with a default; InvalidArgument unless the
/// value is plain decimal digits (no sign).
Result<uint64_t> FlagAsUint64(const CliInvocation& cli,
                              const std::string& key,
                              uint64_t default_value);

/// \brief Executes a parsed invocation, writing human-readable output to
/// `out` (see CliUsage for the subcommands).
///
/// `assess`, `report`, `plan`, `recommend-defense` and `similarity` bind
/// their flags through the serve verbs' param tables and binders
/// (`serve/registry.h`; `--ryser-cutoff` is `ryser_cutoff`); the other
/// commands list their flags. On every command an unknown flag is
/// InvalidArgument naming the accepted ones.
///
/// Global flags understood on every subcommand:
///
///   --trace               enable scoped tracing for the run and append the
///                         per-phase span tree (indented timing table)
///   --trace-format=<fmt>  trace rendering: `table` (default), `json`
///                         (Tracer::ToJson) or `chrome` (trace-event JSON
///                         loadable in Perfetto); implies --trace
///   --trace-out=<path>    write the rendered trace to a file instead of
///                         `out`; implies --trace
///   --metrics-out=<path>  enable metrics, reset the process registry, and
///                         after the run write it to `<path>` as JSON plus
///                         a `.prom` sibling in Prometheus text format
///   --log-level=<level>   structured-log threshold (error|warn|info|debug);
///                         overrides the ANONSAFE_LOG_LEVEL env var
///   --log-file=<path>     append JSON log lines to `<path>` instead of
///                         stderr
///
/// Returns the first error encountered; `out` receives partial output.
Status RunCli(const CliInvocation& cli, std::ostream& out);

/// \brief Usage text.
std::string CliUsage();

}  // namespace anonsafe

#endif  // ANONSAFE_TOOLS_CLI_H_
