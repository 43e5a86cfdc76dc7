#include "src/comm/reductions.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/duplicates/duplicates.h"
#include "src/heavy/heavy_hitters.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/serialize.h"

namespace lps::comm {

ReductionResult RunAiViaUr(const AugmentedIndexingInstance& instance,
                           double ur_delta, uint64_t shared_seed) {
  const int s = instance.s;
  const int t = instance.t;
  LPS_CHECK(s + t <= 24);  // dimension (2^s - 1) 2^t must stay laptop-scale
  const uint64_t block_width = 1ULL << t;

  // Alice's u: block j (1-based) holds 2^{s-j} copies of e_{z_j}; Bob's v
  // matches u on the blocks j < i+1 he knows and is zero afterwards.
  URInstance ur;
  ur.n = ((1ULL << s) - 1) * block_width;
  ur.x.assign(ur.n, 0);
  ur.y.assign(ur.n, 0);
  std::vector<uint64_t> block_base(static_cast<size_t>(s) + 1, 0);
  for (int j = 1; j <= s; ++j) {
    block_base[static_cast<size_t>(j)] =
        block_base[static_cast<size_t>(j - 1)] +
        (j == 1 ? 0 : (1ULL << (s - (j - 1))) * block_width);
  }
  for (int j = 1; j <= s; ++j) {
    const uint64_t copies = 1ULL << (s - j);
    const uint64_t symbol = instance.z[static_cast<size_t>(j - 1)];
    for (uint64_t c = 0; c < copies; ++c) {
      const uint64_t pos =
          block_base[static_cast<size_t>(j)] + c * block_width + symbol;
      ur.x[pos] = 1;
      if (j - 1 < instance.index) ur.y[pos] = 1;  // Bob knows this prefix
    }
  }

  // Lemma 7 wrapper around the one-round protocol makes the output uniform
  // over the differing indices; more than half of them lie in block i+1.
  URResult ur_result = RunSymmetrized(
      ur, shared_seed, [ur_delta](const URInstance& inst, uint64_t seed) {
        return RunOneRoundUR(inst, ur_delta, seed);
      });

  ReductionResult result;
  result.stats = ur_result.stats;
  if (!ur_result.ok) return result;
  result.ok = true;
  // Decode (block, symbol) from the returned index; Bob outputs the symbol.
  int block = s;
  while (block >= 1 && ur_result.index < block_base[static_cast<size_t>(block)]) {
    --block;
  }
  const uint64_t offset =
      ur_result.index - block_base[static_cast<size_t>(block)];
  const uint32_t decoded = static_cast<uint32_t>(offset % block_width);
  result.correct =
      (block == instance.index + 1) &&
      decoded == instance.z[static_cast<size_t>(instance.index)];
  // (If the index landed in a later block the decoded symbol is z_j for
  // j > i; Bob cannot distinguish, so we charge it as an error unless it
  // coincidentally matches — matching blocks is the >1/2 probability event
  // the reduction relies on.)
  if (block != instance.index + 1 &&
      decoded == instance.z[static_cast<size_t>(instance.index)]) {
    result.correct = true;
  }
  return result;
}

ReductionResult RunUrViaDuplicates(const URInstance& instance, double delta,
                                   uint64_t shared_seed) {
  const uint64_t n = instance.n;
  ReductionResult result;

  // S = {2i + x_i}, T = {2i + 1 - y_i}: i differs iff S and T share one of
  // {2i, 2i+1}.
  // Shared randomness: a uniform n-subset P of [2n], with rank relabeling.
  Rng rng(Mix64(shared_seed ^ 0x7e07ULL));
  std::vector<uint64_t> pool(2 * n);
  for (uint64_t a = 0; a < 2 * n; ++a) pool[a] = a;
  for (uint64_t j = 0; j < n; ++j) {
    std::swap(pool[j], pool[j + rng.Below(2 * n - j)]);
  }
  std::vector<int64_t> rank(2 * n, -1);
  {
    std::vector<uint64_t> p(pool.begin(), pool.begin() + static_cast<int64_t>(n));
    std::sort(p.begin(), p.end());
    for (uint64_t r = 0; r < n; ++r) rank[p[r]] = static_cast<int64_t>(r);
  }

  // Alice feeds S cap P into the duplicates finder and ships its memory —
  // the full LinearSketch state (versioned header, params, counters), so
  // Bob needs nothing but the message and the shared randomness. Since
  // PR 3 that memory includes the dyadic candidate generators (Bob must
  // keep streaming AND query sub-linearly), so the measured message
  // exceeds the paper's counters-only quantity by a constant *factor*
  // determined by the structure's configuration (roughly
  // 1 + dyadic_rows * max(1, log n - 5) / cs_rows per embedded sampler
  // round, the tree keeping levels 0..max(0, log n - 6)),
  // not just the old additive header+params+seed term. Consumers compare
  // ratios or scaling shapes, which a configuration-constant factor does
  // not disturb; when the paper-exact bit count is the object of study,
  // account the dyadic share separately via DyadicSpaceBits().
  duplicates::DuplicateFinder::Params params{n, delta, 0,
                                             Mix64(shared_seed ^ 0x7e08ULL)};
  duplicates::DuplicateFinder alice(params);
  uint64_t alice_count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t item = 2 * i + instance.x[i];
    if (rank[item] >= 0) {
      alice.ProcessItem(static_cast<uint64_t>(rank[item]));
      ++alice_count;
    }
  }
  BitWriter message;
  alice.Serialize(&message);
  // The count |S cap P| rides along (log(n+1) bits).
  message.WriteBounded(alice_count, n + 1);
  result.stats.message_bits.push_back(message.bit_count());

  // Bob restores Alice's state, checks the mass condition, feeds
  // n+1-|S cap P| of his own items, and queries.
  duplicates::DuplicateFinder bob(params);
  BitReader reader(message);
  bob.Deserialize(&reader);
  std::vector<uint64_t> bob_items;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t item = 2 * i + 1 - instance.y[i];
    if (rank[item] >= 0) bob_items.push_back(static_cast<uint64_t>(rank[item]));
  }
  if (alice_count + bob_items.size() < n + 1) {
    return result;  // FAIL: not enough mass in P this time
  }
  const uint64_t needed = n + 1 - alice_count;
  for (uint64_t j = 0; j < needed; ++j) bob.ProcessItem(bob_items[j]);
  auto found = bob.Find();
  if (!found.ok()) return result;
  result.ok = true;
  // Map the duplicate rank back to an item of [2n], then to the index.
  uint64_t original = 2 * n;  // sentinel
  for (uint64_t a = 0; a < 2 * n; ++a) {
    if (rank[a] == static_cast<int64_t>(found.value())) {
      original = a;
      break;
    }
  }
  LPS_CHECK(original < 2 * n);
  const uint64_t i = original / 2;
  result.correct = instance.x[i] != instance.y[i];
  return result;
}

ReductionResult RunAiViaHeavyHitters(const AugmentedIndexingInstance& instance,
                                     double p, double phi,
                                     uint64_t shared_seed) {
  const int s = instance.s;
  const int t = instance.t;
  const uint64_t block_width = 1ULL << t;
  const uint64_t n = static_cast<uint64_t>(s) * block_width;
  const double b = std::pow(1.0 - std::pow(2.0 * phi, p), -1.0 / p);

  heavy::CsHeavyHitters::Params params;
  params.n = n;
  params.p = p;
  params.phi = phi;
  params.strict_turnstile = true;
  params.seed = Mix64(shared_seed ^ 0x7e99ULL);

  // Alice builds u: coordinate (j-1) 2^t + z_j has value ceil(b^{s-j}).
  // Her serialized memory includes the dyadic candidate tree (Bob keeps
  // streaming, then queries sub-linearly) — a constant-factor, not
  // additive, overhead over the paper's counters-only message; see the
  // accounting note in RunUrViaDuplicates.
  heavy::CsHeavyHitters alice(params);
  for (int j = 1; j <= s; ++j) {
    const double value = std::ceil(std::pow(b, s - j));
    alice.Update(static_cast<uint64_t>(j - 1) * block_width +
                     instance.z[static_cast<size_t>(j - 1)],
                 value);
  }
  BitWriter message;
  alice.Serialize(&message);
  ReductionResult result;
  result.stats.message_bits.push_back(message.bit_count());

  // Bob subtracts the prefix he knows; the final vector is u - v >= 0
  // (strict turnstile) whose smallest non-zero coordinate is the heavy one.
  heavy::CsHeavyHitters bob(params);
  BitReader reader(message);
  bob.Deserialize(&reader);
  for (int j = 1; j <= instance.index; ++j) {
    const double value = std::ceil(std::pow(b, s - j));
    bob.Update(static_cast<uint64_t>(j - 1) * block_width +
                   instance.z[static_cast<size_t>(j - 1)],
               -value);
  }
  const std::vector<uint64_t> heavy_set = bob.Query();
  if (heavy_set.empty()) return result;
  result.ok = true;
  const uint64_t smallest = *std::min_element(heavy_set.begin(), heavy_set.end());
  const uint32_t decoded = static_cast<uint32_t>(smallest % block_width);
  const int block = static_cast<int>(smallest / block_width);  // 0-based j-1
  result.correct =
      block == instance.index &&
      decoded == instance.z[static_cast<size_t>(instance.index)];
  return result;
}

}  // namespace lps::comm
