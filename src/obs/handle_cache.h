#ifndef ANONSAFE_OBS_HANDLE_CACHE_H_
#define ANONSAFE_OBS_HANDLE_CACHE_H_

// Included only by the obs sources: the per-thread handle cache behind
// `ScopedTimer::Stop` and `CountIf`.

#include <string>
#include <unordered_map>

namespace anonsafe {
namespace obs {
namespace internal {

/// \brief This thread's handles of the metrics named `name`, made by
/// `lookup(name)` on the first call and kept per call site. Registry
/// metrics are never freed (`Reset` only zeroes them), so a handle stays
/// valid, and the hot path builds no string and takes no registry lock.
/// A hit on the same pointer still compares the name, so a buffer later
/// reused for another name is looked up afresh; at most 1024 names are
/// kept per thread.
template <typename Handles, typename Lookup>
const Handles& CachedHandles(const char* name, const Lookup& lookup) {
  struct Entry {
    std::string name;
    Handles handles{};
  };
  thread_local std::unordered_map<const char*, Entry> cache;
  auto it = cache.find(name);
  if (it != cache.end() && it->second.name == name) return it->second.handles;
  if (cache.size() >= 1024) cache.clear();
  Entry& entry = cache[name];
  entry.name = name;
  entry.handles = lookup(name);
  return entry.handles;
}

}  // namespace internal
}  // namespace obs
}  // namespace anonsafe

#endif  // ANONSAFE_OBS_HANDLE_CACHE_H_
