#ifndef ANONSAFE_SERVE_DATASET_CACHE_H_
#define ANONSAFE_SERVE_DATASET_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "core/recipe.h"
#include "data/fimi_io.h"
#include "data/frequency.h"
#include "util/result.h"

namespace anonsafe {
namespace serve {

/// \brief One resident dataset: the parsed database counted once at
/// load, and the recipe artifact cache (bound adversary model, α-sweep +
/// probe stab cache) that repeated `assess_risk` requests replay instead
/// of rebuilding. Every verb reads the table and groups from `data`; none
/// recounts. Entries are immutable once published (the artifact cache is
/// internally locked), so any number of concurrent requests may share
/// one.
struct CachedDataset {
  std::string key;            ///< content hash, the protocol handle
  CountedDatabase data;
  std::shared_ptr<RecipeArtifacts> artifacts;
};

/// \brief Content-addressed LRU cache of parsed datasets.
///
/// Keyed by a hash of the raw FIMI bytes: loading the same content twice
/// — same file, same inline payload, even via different paths — hits the
/// cache and skips the parse and every downstream rebuild. Lookup misses
/// and evictions are counted in the obs registry
/// (`anonsafe_serve_dataset_cache_{hits,misses,evictions}_total`).
///
/// A load (miss or hit) marks its entry unused; `Find` marks it used.
/// Eviction drops the least recently used entry that has been used, and
/// the plain LRU entry only when no resident entry has. A client that
/// loads a dataset and then stalls before its first request keeps it
/// while other clients load and use theirs: when each of N clients uses
/// a dataset before it loads the next, at most N entries are unused.
class DatasetCache {
 public:
  /// Maps content to its handle: `HashContent`, or in a test a hash
  /// under which distinct contents collide.
  using HashFn = std::string (*)(const std::string& content);

  explicit DatasetCache(size_t capacity = 8, HashFn hash = &HashContent);

  struct LoadOutcome {
    std::shared_ptr<const CachedDataset> dataset;
    bool hit = false;  ///< true when the content was already resident
  };

  /// \brief Parses FIMI `content` and returns the resident entry under its
  /// handle when that entry holds the same database (a hit), else a new
  /// entry. InvalidArgument on malformed content; FailedPrecondition,
  /// naming the handle, when the resident entry under it holds a
  /// different database (a hash collision), which stays resident.
  Result<LoadOutcome> LoadFromContent(const std::string& content);

  /// \brief Looks up a previously returned key; null when absent
  /// (expired or never loaded). Refreshes LRU recency and marks the
  /// entry used.
  std::shared_ptr<const CachedDataset> Find(const std::string& key);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// \brief XXH64 (seed 0) of the content in 16 lowercase hex digits —
  /// the cache key and protocol dataset handle. A pure function of the
  /// bytes, so a client can recompute it; not collision-resistant.
  static std::string HashContent(const std::string& content);

 private:
  struct Entry {
    std::shared_ptr<const CachedDataset> dataset;
    bool used = false;  ///< found since its last load
  };

  /// Moves the entry at `it` to the front and sets its `used` flag.
  /// The caller holds `mu_`.
  std::shared_ptr<const CachedDataset> Touch(std::list<Entry>::iterator it,
                                             bool used);

  /// The entry under `key`, or end(). The caller holds `mu_`.
  std::list<Entry>::iterator FindEntry(const std::string& key);

  const size_t capacity_;
  const HashFn hash_;
  mutable std::mutex mu_;
  // Front = most recently used. Linear scan: the cache holds a handful
  // of parsed datasets, not thousands.
  std::list<Entry> entries_;
};

}  // namespace serve
}  // namespace anonsafe

#endif  // ANONSAFE_SERVE_DATASET_CACHE_H_
