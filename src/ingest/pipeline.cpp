#include "ingest/pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "crypto/sha256_multi.h"
#include "net/wire.h"
#include "obs/flight.h"
#include "obs/provenance.h"
#include "obs/span.h"

namespace pnm::ingest {

namespace {

std::size_t clamp_shards(std::size_t requested, std::size_t lanes) {
  if (requested == 0) requested = 1;
  return requested < lanes ? requested : lanes;
}

}  // namespace

std::optional<PushRecord> decode_record(const trace::TraceRecord& record,
                                        util::Counters* counters) {
  std::optional<net::Packet> packet = net::decode_packet(record.wire);
  if (!packet) {
    if (counters) counters->add(util::Metric::kTraceDecodeErrors);
    return std::nullopt;
  }
  packet->delivered_by = record.delivered_by;
  // The pipeline reuses this id rather than hashing the record again.
  const std::uint64_t trace_id =
      obs::ProvenanceCollector::global().admit(packet->report, packet->delivered_by);
  return PushRecord{std::move(*packet), record.time_s(), trace_id};
}

Pipeline::Pipeline(sink::VerifierBank& bank, sink::TracebackEngine* traceback,
                   PipelineConfig cfg, util::Counters* counters)
    : traceback_(traceback),
      cfg_(cfg),
      counters_(counters ? counters : &bank.counters()),
      router_(clamp_shards(cfg.shards, bank.lanes())),
      queue_depth_(&counters_->registry().gauge("ingest_queue_depth")),
      batch_fold_us_(&counters_->registry().histogram("ingest_batch_fold_us")),
      shard_imbalance_ppm_(
          &counters_->registry().histogram("ingest_shard_imbalance_ppm")),
      merge_us_(&counters_->registry().histogram("ingest_merge_us")),
      merger_(traceback) {
  if (cfg_.batch_size == 0) cfg_.batch_size = 256;
  cfg_.shards = router_.shards();
  const std::size_t n = cfg_.shards;
  lanes_.reserve(n);
  queues_.reserve(n);
  lane_depth_.reserve(n);
  lane_records_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    lanes_.push_back(&bank.lane(i));
    queues_.push_back(std::make_unique<BoundedQueue<Item>>(cfg_.queue_capacity));
    lane_depth_.push_back(&counters_->registry().gauge(
        "ingest_queue_depth_shard" + std::to_string(i)));
  }
  stats_.shards = n;
  // Bind the provenance/flight telemetry into this pipeline's registry so
  // every replay exports the same metric key set (golden-pinned) regardless
  // of whether tracing fires.
  obs::ProvenanceCollector::global().bind_metrics(counters_->registry());
  obs::FlightRecorder::global().bind_metrics(counters_->registry());
}

Pipeline::~Pipeline() {
  // The constructor bound the global collectors to counters_->registry(), which
  // may be a private instance dying right after this destructor. A later
  // pipeline rebinds on construction.
  obs::ProvenanceCollector::global().unbind_metrics();
  obs::FlightRecorder::global().unbind_metrics();
}

std::size_t Pipeline::push_batch(std::span<PushRecord> records,
                                 std::shared_ptr<StreamSink> sink,
                                 std::uint64_t first_stream_seq) {
  if (records.empty()) return 0;
  // Per-lane staging, reused across calls; emptied before returning so no
  // record (or stream sink reference) outlives the call here.
  thread_local std::vector<std::vector<Item>> by_lane;
  by_lane.resize(std::max(by_lane.size(), queues_.size()));
  const std::uint64_t seq0 = next_seq_.fetch_add(records.size(), std::memory_order_acq_rel);
  for (std::size_t i = 0; i < records.size(); ++i) {
    PushRecord& r = records[i];
    const std::size_t lane = router_.shard_of(r.packet);
    const std::uint64_t seq = seq0 + i;
    obs::prov_emit(r.trace_id, seq, obs::ProvStage::kDecode, r.packet.marks.size(),
                   r.packet.report.size());
    obs::prov_emit(r.trace_id, seq, obs::ProvStage::kRoute, lane, 0,
                   static_cast<std::uint16_t>(lane));
    by_lane[lane].push_back(
        Item{seq, r.trace_id, std::move(r.packet), r.time_s, sink, first_stream_seq + i});
  }

  std::size_t accepted = 0;
  std::vector<FoldEntry> tombs;
  for (std::size_t lane = 0; lane < queues_.size(); ++lane) {
    std::vector<Item>& items = by_lane[lane];
    if (items.empty()) continue;
    const std::size_t pushed = queues_[lane]->push_all(items);
    accepted += pushed;
    // push_all moved the accepted items out; their seq and trace_id are
    // plain integers, still readable. The queue depth is read (one more
    // lock) only when a sampled record needs it.
    std::size_t depth = 0;
    bool depth_read = false;
    for (std::size_t k = 0; k < pushed; ++k) {
      if (items[k].trace_id == 0) continue;
      if (!depth_read) {
        depth = queues_[lane]->size();
        depth_read = true;
      }
      obs::prov_emit(items[k].trace_id, items[k].seq, obs::ProvStage::kEnqueue, lane,
                     depth, static_cast<std::uint16_t>(lane));
    }
    // The queue closed after these sequence numbers were taken: tombstone
    // them so the merge frontier can advance past the gap.
    for (std::size_t k = pushed; k < items.size(); ++k) {
      FoldEntry tomb;
      tomb.seq = items[k].seq;
      tomb.trace_id = items[k].trace_id;
      tomb.dropped = true;
      tombs.push_back(std::move(tomb));
    }
    items.clear();
  }
  if (!tombs.empty()) hand_off(std::move(tombs));
  return accepted;
}

void Pipeline::hand_off(std::vector<FoldEntry> entries) {
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    if (!merge_exited_) {
      inbox_entries_ += entries.size();
      inbox_.push_back(std::move(entries));
    } else {
      // Only a tombstone can arrive once the merge stage has exited (every
      // lane joined first): a push that lost the race with close() after
      // run() drained. Advancing the frontier past it is all that is left,
      // and this lock is the merger's only owner now.
      if (!error_) merger_.submit(std::move(entries));
      return;
    }
  }
  handoff_cv_.notify_one();
}

void Pipeline::hand_off_batch(std::vector<FoldEntry> entries) {
  // The inbox's bound: a lane that finds more than one batch per lane
  // waiting for the merge stage waits for the next swap, so a starved merge
  // thread throttles the lanes instead of buffering the stream.
  const std::size_t limit = lanes_.size() * cfg_.batch_size;
  std::unique_lock<std::mutex> lock(handoff_mu_);
  inbox_entries_ += entries.size();
  inbox_.push_back(std::move(entries));
  const bool full = inbox_entries_ > limit;
  lock.unlock();
  handoff_cv_.notify_one();
  if (!full) return;
  lock.lock();
  swapped_cv_.wait(lock, [this, limit] { return inbox_entries_ <= limit; });
}

void Pipeline::close() {
  for (auto& q : queues_) q->close();
}

bool Pipeline::wait_quiescent(std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!quiescent()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

void Pipeline::retire_shard_gauges() {
  for (std::size_t i = 0; i < lane_depth_.size(); ++i)
    counters_->registry().retire("ingest_queue_depth_shard" + std::to_string(i));
}

std::size_t Pipeline::max_queue_depth() const {
  std::size_t deepest = 0;
  for (const auto& q : queues_) {
    std::size_t depth = q->size();
    if (depth > deepest) deepest = depth;
  }
  return deepest;
}

void Pipeline::sample_queue_depths(std::size_t lane) {
  std::size_t own = queues_[lane]->size();
  lane_depth_[lane]->set(static_cast<std::int64_t>(own));
  std::size_t total = own;
  for (std::size_t i = 0; i < queues_.size(); ++i)
    if (i != lane) total += queues_[i]->size();
  queue_depth_->set(static_cast<std::int64_t>(total));
}

void Pipeline::run_lane(std::size_t lane) {
  PNM_SPAN("pipeline_lane");
  sink::BatchVerifier& verifier = *lanes_[lane];
  std::vector<Item> batch;
  batch.reserve(cfg_.batch_size);
  std::vector<net::Packet> packets;
  while (queues_[lane]->pop_up_to(cfg_.batch_size, batch)) {
    sample_queue_depths(lane);
    {
      PNM_SPAN("ingest_fold_batch");
      std::chrono::steady_clock::time_point t0;
      if constexpr (obs::kMetricsEnabled) t0 = std::chrono::steady_clock::now();

      packets.clear();
      packets.reserve(batch.size());
      bool any_traced = false;
      for (Item& it : batch) {
        obs::prov_emit(it.trace_id, it.seq, obs::ProvStage::kDequeue, lane,
                       batch.size(), static_cast<std::uint16_t>(lane));
        if (it.trace_id != 0) any_traced = true;
        packets.push_back(std::move(it.packet));
      }

      // PRF-cache deltas bracket the whole batch (the verifier works in
      // batches); exact at one lane, approximate when lanes overlap.
      std::uint64_t hits0 = 0, misses0 = 0;
      if constexpr (obs::kMetricsEnabled) {
        if (any_traced) {
          hits0 = counters_->get(util::Metric::kCacheHits);
          misses0 = counters_->get(util::Metric::kCacheMisses);
        }
      }

      std::vector<marking::VerifyResult> verdicts = verifier.verify_batch(packets);

      std::uint64_t ctx_a = 0, ctx_b = 0;
      if constexpr (obs::kMetricsEnabled) {
        if (any_traced) {
          std::uint64_t dh = counters_->get(util::Metric::kCacheHits) - hits0;
          std::uint64_t dm = counters_->get(util::Metric::kCacheMisses) - misses0;
          ctx_a = static_cast<std::uint64_t>(crypto::active_sha_backend());
          ctx_b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dh)) << 32) |
                  static_cast<std::uint32_t>(dm);
        }
      }

      // Pre-serialize each record's digest contribution here, in parallel
      // across lanes; the merge stage applies them in global sequence order.
      std::vector<FoldEntry> entries;
      entries.reserve(batch.size());
      for (std::size_t i = 0; i < packets.size(); ++i) {
        obs::prov_emit(batch[i].trace_id, batch[i].seq, obs::ProvStage::kVerify,
                       verdicts[i].chain.size(), verdicts[i].invalid_marks,
                       static_cast<std::uint16_t>(lane));
        obs::prov_emit(batch[i].trace_id, batch[i].seq, obs::ProvStage::kVerifyCtx,
                       ctx_a, ctx_b, static_cast<std::uint16_t>(lane));
        FoldEntry e;
        e.seq = batch[i].seq;
        e.trace_id = batch[i].trace_id;
        e.delivered_by = packets[i].delivered_by;
        e.fingerprint = fold_fingerprint(packets[i], verdicts[i]);
        e.verdict = std::move(verdicts[i]);
        if (batch[i].sink)
          batch[i].sink->on_entry(batch[i].stream_seq,
                                  ByteView(e.fingerprint.data(), e.fingerprint.size()),
                                  e.verdict);
        entries.push_back(std::move(e));
      }
      lane_records_[lane] += batch.size();
      counters_->add(util::Metric::kIngestRecords, batch.size());
      hand_off_batch(std::move(entries));

      if constexpr (obs::kMetricsEnabled) {
        auto t1 = std::chrono::steady_clock::now();
        batch_fold_us_->record_us(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    }
    batch.clear();
  }
}

void Pipeline::fail(std::exception_ptr error) {
  // A failed stage stops the run: close the queues so producers and the
  // other lanes unblock, and let the merge stage stop waiting for seqs that
  // will never be verified.
  close();
  std::lock_guard<std::mutex> lock(handoff_mu_);
  if (!error_) error_ = error;
}

void Pipeline::run_merge() {
  PNM_SPAN("pipeline_merge");
  std::vector<std::vector<FoldEntry>> work;
  std::unique_lock<std::mutex> lock(handoff_mu_);
  for (;;) {
    // Drained: every lane has joined, so nothing but a tombstone can still
    // arrive, and the frontier has caught up with every seq issued. A push
    // that raced close() took its seq before this check could see it and
    // hands in its tombstone next, so it is waited for here.
    handoff_cv_.wait(lock, [this] {
      return !inbox_.empty() ||
             (lanes_running_ == 0 && (error_ || merger_.frontier() == seqs_issued()));
    });
    if (inbox_.empty()) break;
    work.swap(inbox_);
    inbox_entries_ = 0;
    const bool discard = error_ != nullptr;
    lock.unlock();
    swapped_cv_.notify_all();
    if (!discard) {
      try {
        PNM_SPAN("ingest_merge");
        std::chrono::steady_clock::time_point t0;
        if constexpr (obs::kMetricsEnabled) t0 = std::chrono::steady_clock::now();
        for (std::vector<FoldEntry>& batch : work) merger_.submit(std::move(batch));
        if constexpr (obs::kMetricsEnabled) {
          auto t1 = std::chrono::steady_clock::now();
          merge_us_->record_us(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      } catch (...) {
        fail(std::current_exception());
      }
    }
    work.clear();
    lock.lock();
  }
  merge_exited_ = true;
}

void Pipeline::run() {
  PNM_SPAN("pipeline_run");
  auto t0 = std::chrono::steady_clock::now();

  std::size_t n = lanes_.size();
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    lanes_running_ = n;
  }
  // Every lane is counted out once, whether it ran, failed or never
  // started; the merge stage drains until none is left.
  auto lane_done = [this] {
    {
      std::lock_guard<std::mutex> lock(handoff_mu_);
      --lanes_running_;
    }
    handoff_cv_.notify_one();
  };
  auto lane_body = [this, &lane_done](std::size_t lane) {
    try {
      run_lane(lane);
    } catch (...) {
      fail(std::current_exception());
    }
    lane_done();
  };

  std::vector<std::thread> extra;
  extra.reserve(n > 0 ? n - 1 : 0);
  std::thread merge([this] { run_merge(); });
  for (std::size_t lane = 1; lane < n; ++lane) {
    try {
      extra.emplace_back(lane_body, lane);
    } catch (...) {  // the lane's thread could not start
      fail(std::current_exception());
      lane_done();
    }
  }
  lane_body(0);
  for (auto& t : extra) t.join();
  merge.join();
  {
    // A late tombstone may touch the merger under this lock (hand_off).
    std::lock_guard<std::mutex> lock(handoff_mu_);
    if (error_) std::rethrow_exception(error_);
    stats_.merge_max_pending = merger_.max_pending();
  }

  auto t1 = std::chrono::steady_clock::now();
  stats_.records = 0;
  std::size_t max_lane = 0;
  for (std::size_t r : lane_records_) {
    stats_.records += r;
    if (r > max_lane) max_lane = r;
  }
  stats_.shard_records = lane_records_;
  stats_.elapsed_s += std::chrono::duration<double>(t1 - t0).count();
  stats_.records_per_s =
      stats_.elapsed_s > 0.0 ? static_cast<double>(stats_.records) / stats_.elapsed_s
                             : 0.0;
  stats_.queue_high_water = 0;
  for (auto& q : queues_)
    if (q->high_water() > stats_.queue_high_water)
      stats_.queue_high_water = q->high_water();
  counters_->update_max(util::Metric::kIngestQueueHighWater, stats_.queue_high_water);
  if constexpr (obs::kMetricsEnabled) {
    // How far the busiest lane ran over an even split, in parts-per-million:
    // 0 = perfectly balanced, 1e6 = one lane did 2x its fair share.
    if (stats_.records > 0) {
      double ideal = static_cast<double>(stats_.records) / static_cast<double>(n);
      double over = (static_cast<double>(max_lane) - ideal) / ideal;
      shard_imbalance_ppm_->record(static_cast<std::uint64_t>(over * 1e6));
    }
  }
}

PipelineStats Pipeline::run_from_trace(trace::TraceReader& reader) {
  // The reader meters its own per-record outcomes (records read, CRC and
  // structural-decode errors); the producer loop only accounts for failures
  // it detects itself (wire images the packet decoder rejects).
  reader.meter_into(counters_);
  std::thread producer([&] {
    // Push the way a serve session does: decoded records go in as one
    // push_batch of at most batch_size.
    std::vector<PushRecord> batch;
    batch.reserve(cfg_.batch_size);
    auto flush = [&] {
      const std::size_t n = batch.size();
      const bool accepted = push_batch(batch, nullptr, 0) == n;
      batch.clear();
      return accepted;
    };
    while (auto outcome = reader.next()) {
      switch (outcome->status) {
        case trace::ReadStatus::kRecord: {
          auto record = decode_record(outcome->record, counters_);
          if (!record) {
            ++stats_.decode_failures;
            break;
          }
          batch.push_back(std::move(*record));
          if (batch.size() == cfg_.batch_size && !flush()) return;
          break;
        }
        case trace::ReadStatus::kBadCrc:
          ++stats_.crc_failures;
          break;
        case trace::ReadStatus::kBadRecord:
          ++stats_.bad_records;
          break;
        case trace::ReadStatus::kTruncated:
          stats_.truncated = true;
          break;
        case trace::ReadStatus::kOversized:
          stats_.oversized = true;
          break;
      }
    }
    flush();
    close();
  });
  run();
  producer.join();
  return stats_;
}

std::string Pipeline::verdict_digest() { return merger_.digest_hex(); }

}  // namespace pnm::ingest
