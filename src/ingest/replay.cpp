#include "ingest/replay.h"

#include "core/campaign.h"
#include "sink/traceback.h"

namespace pnm::ingest {

namespace {

ReplayResult fail(std::string why) {
  ReplayResult r;
  r.error = std::move(why);
  return r;
}

}  // namespace

ReplayResult replay_trace(trace::TraceReader& reader, const ReplayOptions& opts) {
  if (!reader.valid()) return fail("invalid trace: " + reader.header_error());
  std::string why;
  std::optional<core::CampaignWorld> world = core::decode_campaign(reader.meta(), &why);
  if (!world) return fail(why);

  util::Counters local_counters;
  util::Counters* counters = opts.counters ? opts.counters : &local_counters;

  sink::BatchVerifierConfig bcfg;
  bcfg.threads = opts.threads;
  if (opts.scoped && world->kind == marking::SchemeKind::kPnm)
    bcfg.strategy = sink::BatchStrategy::kScoped;
  std::size_t shards = opts.shards ? opts.shards : 1;
  sink::VerifierBank bank(*world->scheme, world->keys, shards, bcfg, &world->topo, counters);
  sink::TracebackEngine engine(*world->scheme, world->keys, world->topo);
  engine.bind_metrics(counters->registry());

  PipelineConfig pcfg;
  pcfg.batch_size = opts.batch_size;
  pcfg.queue_capacity = opts.queue_capacity;
  pcfg.shards = shards;
  Pipeline pipeline(bank, &engine, pcfg, counters);

  reader.rewind();
  ReplayResult result;
  result.stats = pipeline.run_from_trace(reader);
  result.ok = true;
  result.meta = reader.meta();
  result.verdict_digest = pipeline.verdict_digest();
  result.analysis = engine.analysis();
  result.marks_verified = engine.marks_verified();
  return result;
}

ReplayResult replay_file(const std::string& path, const ReplayOptions& opts) {
  trace::TraceReader reader(path);
  return replay_trace(reader, opts);
}

}  // namespace pnm::ingest
