#include "serve/dataset_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace anonsafe {
namespace serve {

DatasetCache::DatasetCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::string DatasetCache::HashContent(const std::string& content) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : content) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

Result<DatasetCache::LoadOutcome> DatasetCache::LoadFromContent(
    const std::string& content) {
  const std::string key = HashContent(content);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->dataset->key == key) {
        obs::CountIf("anonsafe_serve_dataset_cache_hits_total");
        return LoadOutcome{Touch(it, /*used=*/false), /*hit=*/true};
      }
    }
  }
  // Parse outside the lock: a slow load must not stall lookups of
  // resident datasets. Two racing loads of the same content both parse;
  // the second insert finds the key resident and discards its copy.
  obs::CountIf("anonsafe_serve_dataset_cache_misses_total");
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase parsed, ParseFimi(content));
  ANONSAFE_ASSIGN_OR_RETURN(CountedDatabase data,
                            CountedDatabase::Count(std::move(parsed.database)));
  auto entry = std::make_shared<CachedDataset>(
      CachedDataset{key, std::move(data), MakeRecipeArtifacts()});

  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->dataset->key == key) {
      return LoadOutcome{Touch(it, /*used=*/false), /*hit=*/true};
    }
  }
  entries_.push_front(Entry{std::move(entry)});
  while (entries_.size() > capacity_) {
    // The least recently used entry that has been used, else the least
    // recently used one.
    auto used = std::find_if(entries_.rbegin(), entries_.rend(),
                             [](const Entry& e) { return e.used; });
    entries_.erase(used != entries_.rend() ? std::prev(used.base())
                                           : std::prev(entries_.end()));
    obs::CountIf("anonsafe_serve_dataset_cache_evictions_total");
  }
  return LoadOutcome{entries_.front().dataset, /*hit=*/false};
}

std::shared_ptr<const CachedDataset> DatasetCache::Find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->dataset->key == key) {
      obs::CountIf("anonsafe_serve_dataset_cache_hits_total");
      return Touch(it, /*used=*/true);
    }
  }
  obs::CountIf("anonsafe_serve_dataset_cache_misses_total");
  return nullptr;
}

std::shared_ptr<const CachedDataset> DatasetCache::Touch(
    std::list<Entry>::iterator it, bool used) {
  it->used = used;
  entries_.splice(entries_.begin(), entries_, it);
  return entries_.front().dataset;
}

size_t DatasetCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace serve
}  // namespace anonsafe
