#include "data/fimi_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <unordered_map>

namespace anonsafe {
namespace {

/// Byte classes of the FIMI grammar; a token ends at a class of
/// `kSeparator` or above.
enum ByteClass : uint8_t { kOther, kDigit, kSign, kSeparator, kNewline };

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = kDigit;
  table['+'] = table['-'] = kSign;
  for (int c : {' ', '\t', '\v', '\f', '\r'}) table[c] = kSeparator;
  table['\n'] = kNewline;
  return table;
}

constexpr std::array<uint8_t, 256> kByteClass = MakeByteClasses();

uint8_t ClassOf(char c) { return kByteClass[static_cast<unsigned char>(c)]; }

/// A row is ordered through the bitmap when its id span, in 64-bit
/// words, is below this many words per label; otherwise it is sorted.
/// It caps the bitmap work at a few words per label.
constexpr size_t kMaxWordsPerLabel = 4;

/// Every token of up to this many digits fits in int64 unchecked.
constexpr size_t kUncheckedDigits = 18;

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

/// True when the digits [first, last) of a token, negated when
/// `negative`, fit in int64: at most 2^63 - 1, or 2^63 after '-'.
bool FitsInt64(const char* first, const char* last, bool negative) {
  const uint64_t limit = (uint64_t{1} << 63) - (negative ? 0 : 1);
  uint64_t value = 0;
  for (; first < last; ++first) {
    const auto digit = static_cast<uint64_t>(*first - '0');
    if (value > (limit - digit) / 10) return false;
    value = value * 10 + digit;
  }
  return true;
}

/// Reads the token starting at `*p` (not a separator) up to the next
/// separator, newline or `end`, and advances `*p` past it. Returns null,
/// or the error's text when the token is outside the grammar.
const char* ReadLabel(const char** p, const char* end, int64_t* label) {
  const char* q = *p;
  const bool negative = *q == '-';
  if (ClassOf(*q) == kSign) ++q;
  const char* digits = q;
  uint64_t value = 0;
  for (; q < end && ClassOf(*q) == kDigit; ++q) {
    value = value * 10 + static_cast<uint64_t>(*q - '0');
  }
  const auto num_digits = static_cast<size_t>(q - digits);
  if (num_digits == 0 || (q < end && ClassOf(*q) < kSeparator) ||
      (num_digits > kUncheckedDigits && !FitsInt64(digits, q, negative))) {
    return "malformed token";
  }
  if (negative && value != 0) return "negative item label";
  *label = static_cast<int64_t>(value);
  *p = q;
  return nullptr;
}

/// Returns the row's ids, which lie in [lo, hi], sorted and without
/// duplicates. A row whose id span is narrow for its length is set in
/// `bits` (all zero between calls) and read back in order; any other row
/// is sorted.
Transaction OrderRow(Transaction* row, ItemId lo, ItemId hi,
                     std::vector<uint64_t>* bits) {
  const size_t base = lo / 64;
  const size_t words = hi / 64 - base + 1;
  if (words >= kMaxWordsPerLabel * row->size()) {
    std::sort(row->begin(), row->end());
    row->erase(std::unique(row->begin(), row->end()), row->end());
    return Transaction(row->begin(), row->end());
  }
  if (bits->size() < words) bits->resize(words);
  uint64_t* w = bits->data();
  for (ItemId id : *row) w[id / 64 - base] |= uint64_t{1} << (id % 64);
  size_t count = 0;
  for (size_t i = 0; i < words; ++i) count += std::popcount(w[i]);
  Transaction out(count);
  ItemId* o = out.data();
  for (size_t i = 0; i < words; ++i) {
    const auto first = static_cast<ItemId>((base + i) * 64);
    for (uint64_t word = w[i]; word != 0; word &= word - 1) {
      *o++ = first + static_cast<ItemId>(std::countr_zero(word));
    }
    w[i] = 0;
  }
  return out;
}

}  // namespace

Result<LabeledDatabase> ParseFimi(std::string_view text) {
  // One table entry per input byte bounds the dense table at four times
  // the input, whatever the labels.
  LabelIds ids(text.size());
  std::vector<Transaction> rows;
  Transaction row;
  std::vector<uint64_t> bits;
  ItemId lo = kInvalidItem;
  ItemId hi = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  size_t line_no = 1;
  while (true) {
    while (p < end && ClassOf(*p) == kSeparator) ++p;
    if (p == end || *p == '\n') {
      if (!row.empty()) {
        rows.push_back(OrderRow(&row, lo, hi, &bits));
        row.clear();
        lo = kInvalidItem;
        hi = 0;
      }
      if (p == end) break;
      ++p;
      ++line_no;
      continue;
    }
    int64_t label = 0;
    if (const char* error = ReadLabel(&p, end, &label)) {
      return LineError(error, line_no);
    }
    const ItemId id = ids.Intern(label);
    lo = std::min(lo, id);
    hi = std::max(hi, id);
    row.push_back(id);
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
