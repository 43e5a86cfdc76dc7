#include "src/recovery/sparse_recovery.h"

#include <algorithm>

#include "src/field/berlekamp_massey.h"
#include "src/field/gf61.h"
#include "src/field/poly.h"
#include "src/field/roots.h"
#include "src/field/vandermonde.h"
#include "src/kernels/kernels.h"
#include "src/util/check.h"

namespace lps::recovery {

namespace gf = ::lps::gf61;

SparseRecovery::SparseRecovery(uint64_t n, uint64_t s, uint64_t seed)
    : n_(n), s_(s), seed_(seed), syndromes_(2 * s, 0) {
  LPS_CHECK(s >= 1);
  LPS_CHECK(n >= 1 && n < gf::kP - 1);
  Rng rng(seed);
  rho_[0] = 1 + rng.Below(gf::kP - 1);
  rho_[1] = 1 + rng.Below(gf::kP - 1);
}

void SparseRecovery::Update(uint64_t i, int64_t delta) {
  LPS_CHECK(i < n_);
  const uint64_t v = gf::FromInt64(delta);
  const uint64_t a = i + 1;
  uint64_t power = v;  // v * a^0
  for (uint64_t& t : syndromes_) {
    t = gf::Add(t, power);
    power = gf::Mul(power, a);
  }
  fingerprints_[0] = gf::Add(fingerprints_[0], gf::Mul(v, gf::Pow(rho_[0], a)));
  fingerprints_[1] = gf::Add(fingerprints_[1], gf::Mul(v, gf::Pow(rho_[1], a)));
}

void SparseRecovery::UpdateBatch(const stream::Update* updates, size_t count) {
  // Four items at a time: the per-item syndrome chain power *= a is a
  // serial multiply dependency 2s long; the Gf61SyndromeBatch kernel runs
  // four independent chains through one loop (interleaved scalar or one
  // vector lane each, depending on the dispatched backend). Field
  // addition is exact, so any accumulation order yields bit-identical
  // syndromes.
  const kernels::KernelTable& kernel = kernels::Active();
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    uint64_t a[4], power[4];
    for (size_t j = 0; j < 4; ++j) {
      LPS_CHECK(updates[t + j].index < n_);
      a[j] = updates[t + j].index + 1;
      power[j] = gf::FromInt64(updates[t + j].delta);  // v * a^0
    }
    kernel.gf61_syndrome_batch(syndromes_.data(), syndromes_.size(), power, a);
    for (size_t j = 0; j < 4; ++j) {
      const uint64_t v = gf::FromInt64(updates[t + j].delta);
      fingerprints_[0] =
          gf::Add(fingerprints_[0], gf::Mul(v, gf::Pow(rho_[0], a[j])));
      fingerprints_[1] =
          gf::Add(fingerprints_[1], gf::Mul(v, gf::Pow(rho_[1], a[j])));
    }
  }
  for (; t < count; ++t) {
    Update(updates[t].index, updates[t].delta);
  }
}

void SparseRecovery::WriteParams(BitWriter* writer) const {
  writer->WriteU64(n_);
  writer->WriteU64(s_);
  writer->WriteU64(seed_);
}

void SparseRecovery::ReadParams(BitReader* reader) {
  const uint64_t n = reader->ReadU64();
  const uint64_t s = reader->ReadU64();
  const uint64_t seed = reader->ReadU64();
  *this = SparseRecovery(n, s, seed);
}

bool SparseRecovery::IsZero() const {
  if (fingerprints_[0] != 0 || fingerprints_[1] != 0) return false;
  for (uint64_t t : syndromes_) {
    if (t != 0) return false;
  }
  return true;
}

Result<SparseRecovery::SparseVector> SparseRecovery::Recover() const {
  if (IsZero()) return SparseVector{};

  // Shortest LFSR generating the syndrome sequence. For a genuinely
  // <= s-sparse vector, 2s syndromes determine the connection polynomial
  // prod_j (1 - a_j x) exactly.
  const poly::Poly connection = field::BerlekampMassey(syndromes_);
  const size_t degree = static_cast<size_t>(poly::Deg(connection));
  if (degree == 0 || degree > s_) {
    return Status::Dense("LFSR length exceeds sparsity budget");
  }

  // Locator polynomial: reversal of the connection polynomial. Its degree
  // drops below L iff the connection polynomial's top coefficient is zero,
  // which cannot happen for a genuine locator (top coeff = +-prod a_j != 0).
  poly::Poly locator = poly::Reverse(connection);
  if (static_cast<size_t>(poly::Deg(locator)) != degree) {
    return Status::Dense("degenerate locator polynomial");
  }

  Rng rng(Mix64(seed_ ^ 0x5eedULL));
  std::vector<uint64_t> roots = field::FindRoots(locator, &rng);
  if (roots.size() != degree) {
    return Status::Dense("locator does not split into distinct roots");
  }
  std::sort(roots.begin(), roots.end());
  for (uint64_t root : roots) {
    if (root == 0 || root > n_) return Status::Dense("root outside universe");
  }

  const std::vector<uint64_t> values =
      field::SolveTransposedVandermonde(roots, syndromes_);

  SparseVector result;
  result.reserve(degree);
  uint64_t check[2] = {0, 0};
  for (size_t j = 0; j < degree; ++j) {
    if (values[j] == 0) return Status::Dense("zero value at claimed support");
    result.push_back({roots[j] - 1, gf::ToInt64(values[j])});
    check[0] = gf::Add(check[0], gf::Mul(values[j], gf::Pow(rho_[0], roots[j])));
    check[1] = gf::Add(check[1], gf::Mul(values[j], gf::Pow(rho_[1], roots[j])));
  }
  if (check[0] != fingerprints_[0] || check[1] != fingerprints_[1]) {
    return Status::Dense("fingerprint mismatch");
  }
  return result;
}

}  // namespace lps::recovery
