#include "gen.h"

#include <cstdio>
#include <sstream>
#include <vector>

#include "core/campaign.h"
#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "obs/provenance.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace sinkbench {

namespace {

/// V1, the forwarder next to the sink, delivers every packet.
constexpr pnm::NodeId kDeliveredBy = 1;

}  // namespace

std::string generate_trace(const GenSpec& spec) {
  using namespace pnm;
  const double p = spec.marks_per_packet / static_cast<double>(spec.forwarders);

  trace::TraceMeta meta;
  meta.set_u64(trace::kMetaSeed, spec.seed);
  meta.set_u64(trace::kMetaForwarders, spec.forwarders);
  meta.set(trace::kMetaScheme,
           std::string(marking::scheme_kind_name(marking::SchemeKind::kPnm)));
  char prob[32];
  std::snprintf(prob, sizeof(prob), "%.17g", p);
  meta.set(trace::kMetaMarkProbability, prob);
  marking::SchemeConfig scfg;
  scfg.mark_probability = p;
  meta.set_u64(trace::kMetaMacLen, scfg.mac_len);
  meta.set_u64(trace::kMetaAnonLen, scfg.anon_len);
  meta.set("bench_strategy", spec.strategy);

  net::Topology topo = net::Topology::chain(spec.forwarders);
  crypto::KeyStore keys(core::campaign_master_secret(spec.seed), topo.node_count());
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, scfg);
  Rng rng(spec.seed ^ 0x51ed5eedULL);

  // Every rate-th report falls in the program's provenance sample and no
  // other does, so each seed carries the configured sampled share.
  const obs::ProvenanceCollector& prov = obs::ProvenanceCollector::global();
  const std::uint32_t rate = prov.sample_rate();
  std::vector<Bytes> reports;
  reports.reserve(spec.reports);
  for (std::size_t r = 0; r < spec.reports; ++r) {
    const bool sampled = rate != 0 && r % rate == 0;
    net::Report report;
    report.loc_x = static_cast<std::uint16_t>(3 + r % spec.flows);
    report.loc_y = 3;
    report.timestamp = r;  // distinct content per report
    Bytes bytes;
    do {
      report.event = static_cast<std::uint32_t>(rng.next_u64());
      bytes = report.encode();
    } while (prov.sampled(obs::prov_trace_id(ByteView(bytes.data(), bytes.size()),
                                             kDeliveredBy)) != sampled);
    reports.push_back(std::move(bytes));
  }
  std::vector<std::size_t> order;
  order.reserve(trace_records(spec));
  for (std::size_t d = 0; d < spec.deliveries; ++d)
    for (std::size_t r = 0; r < spec.reports; ++r) order.push_back(r);
  if (spec.deliveries > 1) rng.shuffle(order);

  std::ostringstream out;
  trace::TraceWriter writer(out, meta);
  // Sink(0) - V1 ... Vn - source(n+1): the packet is marked by Vn down to V1.
  for (std::size_t i = 0; i < order.size(); ++i) {
    net::Packet pkt;
    pkt.report = reports[order[i]];
    for (std::size_t h = spec.forwarders; h >= 1; --h) {
      auto v = static_cast<NodeId>(h);
      scheme->mark(pkt, v, keys.key_unchecked(v), rng);
    }
    pkt.delivered_by = kDeliveredBy;
    writer.append(pkt, static_cast<double>(i) * 0.001);
  }
  writer.flush();
  return out.str();
}

}  // namespace sinkbench
