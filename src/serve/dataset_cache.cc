#include "serve/dataset_cache.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace anonsafe {
namespace serve {

DatasetCache::DatasetCache(size_t capacity, HashFn hash)
    : capacity_(capacity == 0 ? 1 : capacity), hash_(hash) {}

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

// XXH64 reads its input as little-endian words.
static_assert(std::endian::native == std::endian::little);

uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t h, uint64_t acc) {
  return (h ^ Round(0, acc)) * kPrime1 + kPrime4;
}

/// XXH64 with seed 0 (the xxHash specification, little-endian reads).
uint64_t Xxh64(const unsigned char* p, size_t len) {
  const unsigned char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(MergeRound(MergeRound(MergeRound(h, v1), v2), v3), v4);
  } else {
    h = kPrime5;
  }
  h += len;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Read64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (Read32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// OK when `db` is the resident entry's database; else the collision
/// of two contents under one handle.
Status CheckSameDatabase(const CachedDataset& resident, const Database& db) {
  const Database& held = resident.data.database();
  if (held.num_items() == db.num_items() &&
      held.transactions() == db.transactions()) {
    return Status::OK();
  }
  return Status::FailedPrecondition("dataset handle " + resident.key +
                                    " is resident with different content");
}

}  // namespace

std::string DatasetCache::HashContent(const std::string& content) {
  uint64_t h = Xxh64(reinterpret_cast<const unsigned char*>(content.data()),
                     content.size());
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
  const std::string key = hash_(content);
  std::shared_ptr<const CachedDataset> resident;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = FindEntry(key);
    if (it != entries_.end()) resident = it->dataset;
  }
  // Parse outside the lock: a slow load must not stall lookups of
  // resident datasets. A key match parses too: the handle is a 64-bit
  // hash that crafted content can collide with, so a match is a hit only
  // when the content parses to the resident database.
  ANONSAFE_ASSIGN_OR_RETURN(LabeledDatabase parsed, ParseFimi(content));
  if (resident != nullptr) {
    ANONSAFE_RETURN_IF_ERROR(CheckSameDatabase(*resident, parsed.database));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = FindEntry(key);
    if (it != entries_.end() && it->dataset == resident) {
      obs::CountIf("anonsafe_serve_dataset_cache_hits_total");
      return LoadOutcome{Touch(it, /*used=*/false), /*hit=*/true};
    }
    // Evicted since the lookup: load it afresh.
  }
  // Two racing loads of the same content both parse; the second insert
  // finds the key resident and discards its copy.
  obs::CountIf("anonsafe_serve_dataset_cache_misses_total");
  ANONSAFE_ASSIGN_OR_RETURN(CountedDatabase data,
                            CountedDatabase::Count(std::move(parsed.database)));
  auto entry = std::make_shared<CachedDataset>(
      CachedDataset{key, std::move(data), MakeRecipeArtifacts()});

  // Victims are destroyed after `lock` is released: the cache may hold
  // a victim's last reference, and freeing a dataset must not stall the
  // lookups and loads waiting on `mu_`.
  std::list<Entry> evicted;
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = FindEntry(key); it != entries_.end()) {
    ANONSAFE_RETURN_IF_ERROR(
        CheckSameDatabase(*it->dataset, entry->data.database()));
    return LoadOutcome{Touch(it, /*used=*/false), /*hit=*/true};
  }
  entries_.push_front(Entry{std::move(entry)});
  while (entries_.size() > capacity_) {
    // The least recently used entry that has been used, else the least
    // recently used one.
    auto used = std::find_if(entries_.rbegin(), entries_.rend(),
                             [](const Entry& e) { return e.used; });
    evicted.splice(evicted.end(), entries_,
                   used != entries_.rend() ? std::prev(used.base())
                                           : std::prev(entries_.end()));
    obs::CountIf("anonsafe_serve_dataset_cache_evictions_total");
  }
  return LoadOutcome{entries_.front().dataset, /*hit=*/false};
}

std::shared_ptr<const CachedDataset> DatasetCache::Find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = FindEntry(key); it != entries_.end()) {
    obs::CountIf("anonsafe_serve_dataset_cache_hits_total");
    return Touch(it, /*used=*/true);
  }
  obs::CountIf("anonsafe_serve_dataset_cache_misses_total");
  return nullptr;
}

std::list<DatasetCache::Entry>::iterator DatasetCache::FindEntry(
    const std::string& key) {
  return std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
    return e.dataset->key == key;
  });
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
