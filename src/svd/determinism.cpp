#include "svd/determinism.hpp"

#include "util/hash.hpp"

namespace treesvd {
namespace {

void add_core(Fnv1a& h, const SvdResult& r) {
  h.add_u64(r.u.rows());
  h.add_u64(r.u.cols());
  h.add_doubles(r.u.data());
  h.add_u64(r.sigma.size());
  h.add_doubles({r.sigma.data(), r.sigma.size()});
  h.add_u64(r.v.rows());
  h.add_u64(r.v.cols());
  h.add_doubles(r.v.data());
  h.add_u64(static_cast<std::uint64_t>(r.sweeps));
  h.add_u64(r.converged ? 1 : 0);
  h.add_u64(r.rotations);
  h.add_u64(r.swaps);
  h.add_u64(static_cast<std::uint64_t>(r.status));
}

}  // namespace

std::uint64_t result_core_digest(const SvdResult& r) {
  Fnv1a h;
  add_core(h, r);
  return h.value();
}

std::uint64_t result_digest(const SvdResult& r) {
  Fnv1a h;
  add_core(h, r);
  const KernelStats& k = r.kernel_stats;
  h.add_u64(k.pairs);
  h.add_u64(k.dot_passes);
  h.add_u64(k.gram_passes);
  h.add_u64(k.rotate_passes);
  h.add_u64(k.norm_refreshes);
  h.add_u64(k.gram_builds);
  h.add_u64(k.accum_rotations);
  h.add_u64(k.blocked_applies);
  return h.value();
}

}  // namespace treesvd
