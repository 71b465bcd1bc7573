// The plain serial §4.2 verification procedure, as a test oracle for the
// exhaustive PNM verify path: one PRF per node through the raw key, a sorted
// anon-ID -> node table, and a first-match backward MAC pass, metering the
// MAC checks it makes.
#pragma once

#include <map>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "marking/mark.h"
#include "marking/scheme.h"

namespace pnm::marking {

struct OracleResult {
  VerifyResult result;
  std::uint64_t mac_checks = 0;
};

inline OracleResult oracle_verify(const net::Packet& p, const crypto::KeyStore& keys,
                                  std::size_t anon_len) {
  OracleResult out;
  out.result.total_marks = p.marks.size();
  if (p.marks.empty()) return out;
  // Sorted by (anon ID, node id): equal_range yields candidates ascending.
  std::multimap<Bytes, NodeId> table;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    table.emplace(crypto::anon_id(keys.key_unchecked(id), p.report, id, anon_len), id);
  }
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;
    if (m.id_field.size() == anon_len) {
      const Bytes input = nested_mac_input(p, j, m.id_field);
      auto [lo, hi] = table.equal_range(m.id_field);
      for (auto it = lo; it != hi; ++it) {
        ++out.mac_checks;
        if (crypto::verify_mac(keys.key_unchecked(it->second), input, m.mac)) {
          resolved = it->second;
          break;
        }
      }
    }
    if (resolved == kInvalidNode) {
      out.result.invalid_marks = j + 1;
      out.result.truncated_by_invalid = true;
      break;
    }
    out.result.chain.insert(out.result.chain.begin(), VerifiedMark{resolved, j});
  }
  return out;
}

}  // namespace pnm::marking
