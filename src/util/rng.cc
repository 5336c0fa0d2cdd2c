#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace anonsafe {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  assert(bound > 0);
  if (bound == 0) return 0;
  // Rejection below 2^64 mod bound avoids modulo bias. That threshold is
  // below bound, so it is computed only for the rare draw under bound:
  // every other draw costs one division and keeps its value.
  for (;;) {
    uint64_t r = Next();
    if (r >= bound || r >= (-bound) % bound) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  // Unsigned arithmetic: hi - lo overflows int64 on wide ranges.
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                              UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Normal() {
  // Box–Muller; discard the second variate to keep the generator stateless
  // with respect to caching.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  constexpr double kTwoPi = 6.283185307179586476925287;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

int64_t Rng::Poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's multiplication method.
    double limit = std::exp(-lambda);
    double prod = UniformDouble();
    int64_t k = 0;
    while (prod > limit) {
      ++k;
      prod *= UniformDouble();
    }
    return k;
  }
  // Normal approximation with continuity correction for large lambda.
  double v = Normal(lambda, std::sqrt(lambda));
  return v < 0.0 ? 0 : static_cast<int64_t>(v + 0.5);
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  Shuffle(&p);
  return p;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  std::vector<size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Dense case: shuffle a full index vector and take a prefix.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    Shuffle(&idx);
    out.assign(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k));
  } else {
    // Sparse case: Floyd's algorithm, O(k) expected insertions.
    std::vector<bool> chosen(n, false);
    for (size_t j = n - k; j < n; ++j) {
      size_t t = static_cast<size_t>(UniformUint64(j + 1));
      if (chosen[t]) t = j;
      chosen[t] = true;
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace anonsafe
