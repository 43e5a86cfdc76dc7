#include "src/recovery/one_sparse.h"

#include "src/field/gf61.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace lps::recovery {

namespace gf = ::lps::gf61;

OneSparse::OneSparse(uint64_t n, uint64_t seed) : n_(n), seed_(seed) {
  Rng rng(seed);
  rho_ = 1 + rng.Below(gf::kP - 1);  // non-zero base
}

void OneSparse::UpdateBatch(const stream::Update* updates, size_t count) {
  for (size_t t = 0; t < count; ++t) {
    Update(updates[t].index, updates[t].delta);
  }
}

void OneSparse::Update(uint64_t i, int64_t delta) {
  LPS_CHECK(i < n_);
  const uint64_t v = gf::FromInt64(delta);
  const uint64_t a = i + 1;
  s0_ = gf::Add(s0_, v);
  s1_ = gf::Add(s1_, gf::Mul(v, a));
  f_ = gf::Add(f_, gf::Mul(v, gf::Pow(rho_, a)));
}

bool OneSparse::IsZero() const { return s0_ == 0 && s1_ == 0 && f_ == 0; }

Result<OneSparse::Entry> OneSparse::Recover() const {
  if (s0_ == 0) return Status::Dense("zero or cancelling support");
  const uint64_t a = gf::Mul(s1_, gf::Inv(s0_));
  if (a == 0 || a > n_) return Status::Dense("index out of range");
  if (f_ != gf::Mul(s0_, gf::Pow(rho_, a))) {
    return Status::Dense("fingerprint mismatch");
  }
  return Entry{a - 1, gf::ToInt64(s0_)};
}

void OneSparse::WriteParams(BitWriter* writer) const {
  writer->WriteU64(n_);
  writer->WriteU64(seed_);
}

void OneSparse::ReadParams(BitReader* reader) {
  const uint64_t n = reader->ReadU64();
  const uint64_t seed = reader->ReadU64();
  *this = OneSparse(n, seed);
}

}  // namespace lps::recovery
