#ifndef ANONSAFE_DATA_FIMI_IO_H_
#define ANONSAFE_DATA_FIMI_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "data/database.h"
#include "util/result.h"

namespace anonsafe {

/// \brief A database together with the mapping from dense ids back to the
/// sparse labels used in the source file.
///
/// FIMI/UCI benchmark files identify items by arbitrary non-negative
/// integers (e.g. RETAIL uses ids up to ~16469 with holes). On load, labels
/// are remapped to the dense range `{0, ..., n-1}` in order of first
/// appearance; `labels[i]` is the original integer of dense item `i`.
struct LabeledDatabase {
  Database database{0};
  std::vector<int64_t> labels;
};

/// \brief Parses FIMI-format text in place: one transaction per line,
/// non-negative integer item labels separated by runs of ' ', '\t', '\v',
/// '\f' or '\r'. A label is `[+-]?[0-9]+` and must fit in int64 ("-0" is
/// 0). Blank lines are skipped; duplicate items within a line are
/// collapsed. The full grammar is in docs/FORMATS.md.
///
/// Fails with InvalidArgument "negative item label at line N" on a
/// non-zero negative label and "malformed token at line N" on any other
/// token outside the grammar.
Result<LabeledDatabase> ParseFimi(std::string_view text);

/// \brief Reads the whole stream, then parses it with `ParseFimi`. Fails
/// with IOError on unreadable input.
Result<LabeledDatabase> ReadFimi(std::istream& in);

/// \brief Reads a FIMI file from disk (see `ReadFimi`).
Result<LabeledDatabase> ReadFimiFile(const std::string& path);

/// \brief Writes a database in FIMI format using dense ids as labels.
Status WriteFimi(const Database& db, std::ostream& out);

/// \brief Writes a database to a FIMI file on disk.
Status WriteFimiFile(const Database& db, const std::string& path);

}  // namespace anonsafe

#endif  // ANONSAFE_DATA_FIMI_IO_H_
