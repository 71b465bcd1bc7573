#include "crypto/keys.h"

#include "crypto/hmac.h"

namespace pnm::crypto {

KeyStore::KeyStore(ByteView master_secret, std::size_t node_count) {
  keys_.reserve(node_count);
  // One ipad/opad schedule for the master, not one per derived key.
  const HmacKey master(master_secret);
  for (std::size_t i = 0; i < node_count; ++i) {
    ByteWriter w;
    w.raw(ByteView(reinterpret_cast<const std::uint8_t*>("pnm-node-key"), 12));
    w.u16(static_cast<std::uint16_t>(i));
    Sha256Digest d = master.mac(w.bytes());
    keys_.emplace_back(d.begin(), d.begin() + kKeySize);
  }
  hmac_keys_.reserve(node_count);
  for (const Bytes& k : keys_) hmac_keys_.emplace_back(ByteView(k));
}

std::optional<Bytes> KeyStore::key(NodeId id) const {
  if (id >= keys_.size()) return std::nullopt;
  return keys_[id];
}

ByteView KeyStore::key_unchecked(NodeId id) const { return keys_[id]; }

}  // namespace pnm::crypto
