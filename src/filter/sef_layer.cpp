#include "filter/sef_layer.h"

#include "crypto/sha256.h"

namespace pnm::filter {

SefReport SefLayer::view_of(ByteView report, bool forged) const {
  // Endorsement choice is a function of the report alone so every hop
  // reconstructs the identical set (they were fixed at the source).
  crypto::Sha256Digest d = crypto::Sha256::hash(report);
  std::uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = (seed << 8) | d[static_cast<std::size_t>(i)];
  Rng rng(seed);
  return forged ? ctx_.make_forged_report(report, owned_, rng)
                : ctx_.make_legit_report(report, rng);
}

bool SefLayer::passes(NodeId self, const net::Packet& p) const {
  return ctx_.check_en_route(self, view_of(p.report, p.bogus));
}

net::NodeHandler SefLayer::wrap(net::NodeHandler inner, std::size_t* dropped) const {
  return [this, inner = std::move(inner), dropped](net::Packet& p, NodeId self) {
    if (!passes(self, p)) {
      if (dropped) ++*dropped;
      return false;
    }
    return !inner || inner(p, self);
  };
}

}  // namespace pnm::filter
