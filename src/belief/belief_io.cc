#include "belief/belief_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace anonsafe {

Result<BeliefFunction> ReadBeliefFunction(std::istream& in,
                                          size_t num_items) {
  std::vector<BeliefInterval> intervals(num_items,
                                        BeliefInterval{0.0, 1.0});
  std::vector<bool> seen(num_items, false);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\n\v\f\r") == std::string::npos) {
      continue;  // blank / comment-only line
    }
    std::istringstream ls(line);
    long long item;
    double lo, hi;
    if (!(ls >> item >> lo >> hi)) {
      return Status::InvalidArgument(
          "belief line " + std::to_string(line_no) +
          ": expected '<item> <lo> <hi>'");
    }
    std::string trailing;
    if (ls >> trailing) {
      return Status::InvalidArgument("belief line " +
                                     std::to_string(line_no) +
                                     ": trailing garbage '" + trailing + "'");
    }
    if (item < 0 || static_cast<size_t>(item) >= num_items) {
      return Status::InvalidArgument(
          "belief line " + std::to_string(line_no) + ": item " +
          std::to_string(item) + " outside domain of size " +
          std::to_string(num_items));
    }
    if (!(lo <= hi) || lo < 0.0 || hi > 1.0) {
      return Status::InvalidArgument(
          "belief line " + std::to_string(line_no) + ": invalid interval [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    auto x = static_cast<size_t>(item);
    if (seen[x]) {
      // Conjunction: intersect with the existing constraint.
      double new_lo = std::max(intervals[x].lo, lo);
      double new_hi = std::min(intervals[x].hi, hi);
      if (new_lo > new_hi) {
        return Status::InvalidArgument(
            "belief line " + std::to_string(line_no) + ": constraints on "
            "item " + std::to_string(item) + " intersect to nothing");
      }
      intervals[x] = {new_lo, new_hi};
    } else {
      intervals[x] = {lo, hi};
      seen[x] = true;
    }
  }
  if (in.bad()) return Status::IOError("stream read failure");
  return BeliefFunction::Create(std::move(intervals));
}

Result<BeliefFunction> ReadBeliefFunctionFile(const std::string& path,
                                              size_t num_items) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadBeliefFunction(in, num_items);
}

Status WriteBeliefFunction(const BeliefFunction& belief,
                           std::ostream& out) {
  out << "# anonsafe belief function over " << belief.num_items()
      << " items\n"
      << "# <item-id> <lo> <hi>; unmentioned items default to [0, 1]\n";
  out.precision(17);
  for (ItemId x = 0; x < belief.num_items(); ++x) {
    const BeliefInterval& iv = belief.interval(x);
    if (iv.lo == 0.0 && iv.hi == 1.0) continue;  // ignorant default
    out << x << ' ' << iv.lo << ' ' << iv.hi << '\n';
  }
  if (!out) return Status::IOError("stream write failure");
  return Status::OK();
}

Status WriteBeliefFunctionFile(const BeliefFunction& belief,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteBeliefFunction(belief, out);
}

}  // namespace anonsafe
