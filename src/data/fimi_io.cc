#include "data/fimi_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace anonsafe {
namespace {

bool IsSeparator(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

Status LineError(const char* what, size_t line_no) {
  return Status::InvalidArgument(std::string(what) + " at line " +
                                 std::to_string(line_no));
}

/// Assigns dense ids to labels in order of first appearance. Labels below
/// `cap` index a flat table that grows on demand; larger ones fall back to
/// a hash map, so the table never outgrows a fixed multiple of the input.
class LabelIds {
 public:
  explicit LabelIds(size_t cap) : cap_(cap) {}

  ItemId Intern(int64_t label) {
    const auto slot = static_cast<uint64_t>(label);
    if (slot < cap_) {
      if (slot >= dense_.size()) {
        const uint64_t grown = std::max<uint64_t>(slot + 1, 2 * dense_.size());
        dense_.resize(std::min(cap_, grown), kInvalidItem);
      }
      ItemId& id = dense_[slot];
      if (id == kInvalidItem) id = Append(label);
      return id;
    }
    auto [it, inserted] = sparse_.try_emplace(label, ItemId{0});
    if (inserted) it->second = Append(label);
    return it->second;
  }

  std::vector<int64_t> TakeLabels() { return std::move(labels_); }

 private:
  ItemId Append(int64_t label) {
    labels_.push_back(label);
    return static_cast<ItemId>(labels_.size() - 1);
  }

  uint64_t cap_;
  std::vector<ItemId> dense_;
  std::unordered_map<int64_t, ItemId> sparse_;
  std::vector<int64_t> labels_;
};

/// Reads the token starting at `*p` (not a separator) up to the next
/// separator or `eol`, and advances `*p` past it.
Status ReadLabel(const char** p, const char* eol, size_t line_no,
                 int64_t* label) {
  const char* q = *p;
  const bool negative = *q == '-';
  if (*q == '-' || *q == '+') ++q;
  const char* digits = q;
  // The magnitude must fit in int64: at most 2^63 - 1, or 2^63 after '-'.
  const uint64_t limit = (uint64_t{1} << 63) - (negative ? 0 : 1);
  uint64_t value = 0;
  for (; q < eol && *q >= '0' && *q <= '9'; ++q) {
    const auto digit = static_cast<uint64_t>(*q - '0');
    if (value > (limit - digit) / 10) {
      return LineError("malformed token", line_no);
    }
    value = value * 10 + digit;
  }
  if (q == digits || (q < eol && !IsSeparator(*q))) {
    return LineError("malformed token", line_no);
  }
  if (negative && value != 0) {
    return LineError("negative item label", line_no);
  }
  *label = static_cast<int64_t>(value);
  *p = q;
  return Status::OK();
}

}  // namespace

Result<LabeledDatabase> ParseFimi(std::string_view text) {
  // One table entry per input byte bounds the dense table at four times
  // the input, whatever the labels.
  LabelIds ids(text.size());
  std::vector<Transaction> rows;
  Transaction row;
  const char* p = text.data();
  const char* const end = p + text.size();
  for (size_t line_no = 1; p < end; ++line_no) {
    const char* eol = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (eol == nullptr) eol = end;
    row.clear();
    while (true) {
      while (p < eol && IsSeparator(*p)) ++p;
      if (p == eol) break;
      int64_t label = 0;
      ANONSAFE_RETURN_IF_ERROR(ReadLabel(&p, eol, line_no, &label));
      row.push_back(ids.Intern(label));
    }
    if (!row.empty()) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      rows.emplace_back(row.begin(), row.end());
    }
    if (eol == end) break;
    p = eol + 1;
  }

  LabeledDatabase out;
  out.labels = ids.TakeLabels();
  out.database = Database(out.labels.size());
  for (Transaction& t : rows) {
    out.database.AddTransactionUnchecked(std::move(t));
  }
  return out;
}

Result<LabeledDatabase> ReadFimi(std::istream& in) {
  std::string text;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IOError("stream read failure");
  return ParseFimi(text);
}

Result<LabeledDatabase> ReadFimiFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadFimi(in);
}

Status WriteFimi(const Database& db, std::ostream& out) {
  for (const Transaction& t : db.transactions()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i) out << ' ';
      out << t[i];
    }
    out << '\n';
  }
  if (!out) return Status::IOError("stream write failure");
  return Status::OK();
}

Status WriteFimiFile(const Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteFimi(db, out);
}

}  // namespace anonsafe
