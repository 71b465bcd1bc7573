#include "obs/provenance.h"

#include <algorithm>
#include <cstdio>

#include "obs/span.h"

namespace pnm::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Stage rank used by the canonical sort: the enum already lists stages in
/// causal order, so the enum value doubles as the rank.
std::uint8_t stage_rank(ProvStage s) { return static_cast<std::uint8_t>(s); }

}  // namespace

const char* prov_stage_name(ProvStage s) {
  switch (s) {
    case ProvStage::kDeliver: return "deliver";
    case ProvStage::kDecode: return "decode";
    case ProvStage::kRoute: return "route";
    case ProvStage::kEnqueue: return "enqueue";
    case ProvStage::kDequeue: return "dequeue";
    case ProvStage::kVerify: return "verify";
    case ProvStage::kVerifyCtx: return "verify_ctx";
    case ProvStage::kMerge: return "merge";
    case ProvStage::kFold: return "fold";
    case ProvStage::kAccuse: return "accuse";
  }
  return "?";
}

bool prov_stage_canonical(ProvStage s) {
  switch (s) {
    case ProvStage::kDecode:
    case ProvStage::kVerify:
    case ProvStage::kFold:
    case ProvStage::kAccuse:
      return true;
    default:
      return false;
  }
}

std::uint64_t prov_trace_id(ByteView report, std::uint64_t delivered_by) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t byte : report) {
    h ^= byte;
    h *= kFnvPrime;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= (delivered_by >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h == 0 ? 1 : h;
}

/// Single-writer seqlock ring: the owning thread stores events through
/// relaxed atomics bracketed by a version counter; scrapers retry slots that
/// change underneath them. All fields are atomics, so a concurrent scrape is
/// data-race-free under TSan and can never observe a torn event.
struct ProvenanceCollector::Ring {
  struct Slot {
    std::atomic<std::uint32_t> ver{0};  ///< odd while the writer is inside
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> packed{0};  ///< tid | lane << 32 | stage << 48
  };

  explicit Ring(std::size_t capacity)
      : cap(capacity < 2 ? 2 : capacity), slots(new Slot[capacity < 2 ? 2 : capacity]) {}

  void push(const ProvEvent& e) {
    std::uint64_t n = head.load(std::memory_order_relaxed);
    Slot& s = slots[n % cap];
    std::uint32_t v = s.ver.load(std::memory_order_relaxed);
    s.ver.store(v + 1, std::memory_order_release);
    s.trace_id.store(e.trace_id, std::memory_order_relaxed);
    s.seq.store(e.seq, std::memory_order_relaxed);
    s.ts_us.store(e.ts_us, std::memory_order_relaxed);
    s.a.store(e.a, std::memory_order_relaxed);
    s.b.store(e.b, std::memory_order_relaxed);
    s.packed.store(static_cast<std::uint64_t>(e.tid) |
                       (static_cast<std::uint64_t>(e.lane) << 32) |
                       (static_cast<std::uint64_t>(e.stage) << 48),
                   std::memory_order_relaxed);
    s.ver.store(v + 2, std::memory_order_release);
    head.store(n + 1, std::memory_order_release);
  }

  bool read_slot(std::size_t i, ProvEvent* out) const {
    const Slot& s = slots[i];
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::uint32_t v1 = s.ver.load(std::memory_order_acquire);
      if (v1 & 1) continue;  // writer mid-store
      out->trace_id = s.trace_id.load(std::memory_order_relaxed);
      out->seq = s.seq.load(std::memory_order_relaxed);
      out->ts_us = s.ts_us.load(std::memory_order_relaxed);
      out->a = s.a.load(std::memory_order_relaxed);
      out->b = s.b.load(std::memory_order_relaxed);
      std::uint64_t packed = s.packed.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.ver.load(std::memory_order_relaxed) != v1) continue;  // overwritten
      out->tid = static_cast<std::uint32_t>(packed & 0xffffffffu);
      out->lane = static_cast<std::uint16_t>((packed >> 32) & 0xffffu);
      std::uint8_t stage = static_cast<std::uint8_t>((packed >> 48) & 0xffu);
      if (stage >= kProvStageCount) return false;
      out->stage = static_cast<ProvStage>(stage);
      return out->trace_id != 0;
    }
    return false;
  }

  const std::size_t cap;
  std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> head{0};  ///< events ever pushed by this ring
};

ProvenanceCollector& ProvenanceCollector::global() {
  static ProvenanceCollector* instance = new ProvenanceCollector();  // never destroyed
  return *instance;
}

void ProvenanceCollector::set_sample_rate(std::uint32_t one_in_n) {
  rate_.store(one_in_n, std::memory_order_relaxed);
  if (Gauge* g = rate_gauge_.load(std::memory_order_acquire))
    g->set(one_in_n ? static_cast<std::int64_t>(1000000 / one_in_n) : 0);
}

void ProvenanceCollector::set_ring_capacity(std::size_t events) {
  if (events < 2) events = 2;
  ring_capacity_.store(events, std::memory_order_relaxed);
}

/// A thread's hold on its ring; hands the ring back when the thread exits.
struct ProvenanceCollector::RingLease {
  RingLease() = default;
  RingLease(const RingLease&) = delete;
  RingLease& operator=(const RingLease&) = delete;
  ~RingLease() {
    if (ring) owner->release_ring(ring);
  }

  ProvenanceCollector* owner = nullptr;
  Ring* ring = nullptr;
};

ProvenanceCollector::Ring& ProvenanceCollector::ring_for_thread() {
  thread_local RingLease lease;
  if (!lease.ring) {
    lease.owner = this;
    lease.ring = lease_ring();
  }
  return *lease.ring;
}

ProvenanceCollector::Ring* ProvenanceCollector::lease_ring() {
  const std::size_t capacity = ring_capacity_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (auto it = free_rings_.rbegin(); it != free_rings_.rend(); ++it) {
    if ((*it)->cap != capacity) continue;
    Ring* ring = *it;
    free_rings_.erase(std::next(it).base());
    return ring;
  }
  rings_.push_back(std::make_unique<Ring>(capacity));
  return rings_.back().get();
}

void ProvenanceCollector::release_ring(Ring* ring) {
  std::lock_guard<std::mutex> lock(rings_mu_);
  free_rings_.push_back(ring);
}

std::size_t ProvenanceCollector::ring_count() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  return rings_.size();
}

void ProvenanceCollector::emit(const ProvEvent& e) {
  if constexpr (!kMetricsEnabled) {
    (void)e;
    return;
  }
  ProvEvent stamped = e;
  if (stamped.ts_us == 0) stamped.ts_us = steady_now_us();
  if (stamped.tid == 0) stamped.tid = current_thread_id();
  Ring& ring = ring_for_thread();
  bool wrapping = ring.head.load(std::memory_order_relaxed) >= ring.cap;
  ring.push(stamped);
  if (Counter* c = sampled_counter_.load(std::memory_order_acquire)) c->add();
  if (wrapping)
    if (Counter* c = dropped_counter_.load(std::memory_order_acquire)) c->add();
}

std::vector<ProvEvent> ProvenanceCollector::snapshot() const {
  std::vector<ProvEvent> out;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const auto& ring : rings_) {
      std::uint64_t head = ring->head.load(std::memory_order_acquire);
      std::uint64_t retained = head < ring->cap ? head : ring->cap;
      std::uint64_t start = head - retained;
      for (std::uint64_t n = start; n < head; ++n) {
        ProvEvent e;
        if (ring->read_slot(static_cast<std::size_t>(n % ring->cap), &e))
          out.push_back(e);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const ProvEvent& x, const ProvEvent& y) {
    return x.ts_us < y.ts_us;
  });
  return out;
}

std::uint64_t ProvenanceCollector::recorded() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->head.load(std::memory_order_acquire);
  return total;
}

std::uint64_t ProvenanceCollector::dropped() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > ring->cap) total += head - ring->cap;
  }
  return total;
}

void ProvenanceCollector::clear() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (auto& ring : rings_) {
    // The owning thread may be writing concurrently in principle, but clear()
    // is a between-run seam (tests, benches) where writers are quiescent.
    for (std::size_t i = 0; i < ring->cap; ++i)
      ring->slots[i].trace_id.store(0, std::memory_order_relaxed);
    ring->head.store(0, std::memory_order_release);
  }
}

void ProvenanceCollector::bind_metrics(MetricsRegistry& registry) {
  sampled_counter_.store(&registry.counter("provenance_sampled"),
                         std::memory_order_release);
  dropped_counter_.store(&registry.counter("provenance_dropped"),
                         std::memory_order_release);
  Gauge& g = registry.gauge("provenance_sample_rate_ppm");
  rate_gauge_.store(&g, std::memory_order_release);
  std::uint32_t rate = rate_.load(std::memory_order_relaxed);
  g.set(rate ? static_cast<std::int64_t>(1000000 / rate) : 0);
}

void ProvenanceCollector::unbind_metrics() {
  sampled_counter_.store(nullptr, std::memory_order_release);
  dropped_counter_.store(nullptr, std::memory_order_release);
  rate_gauge_.store(nullptr, std::memory_order_release);
}

namespace {

void append_hex_id(std::string* out, std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  *out += buf;
}

}  // namespace

std::string provenance_jsonl_canonical() {
  std::vector<ProvEvent> events = ProvenanceCollector::global().snapshot();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const ProvEvent& e) {
                                return !prov_stage_canonical(e.stage);
                              }),
               events.end());
  std::sort(events.begin(), events.end(), [](const ProvEvent& x, const ProvEvent& y) {
    if (x.seq != y.seq) return x.seq < y.seq;
    if (stage_rank(x.stage) != stage_rank(y.stage))
      return stage_rank(x.stage) < stage_rank(y.stage);
    return x.trace_id < y.trace_id;
  });
  std::string out;
  out.reserve(events.size() * 96);
  char buf[64];
  for (const ProvEvent& e : events) {
    out += "{\"trace_id\":\"";
    append_hex_id(&out, e.trace_id);
    std::snprintf(buf, sizeof(buf), "\",\"seq\":%llu,\"stage\":\"%s\"",
                  static_cast<unsigned long long>(e.seq), prov_stage_name(e.stage));
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"a\":%llu,\"b\":%llu}\n",
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out += buf;
  }
  return out;
}

std::string provenance_jsonl_full() {
  std::vector<ProvEvent> events = ProvenanceCollector::global().snapshot();
  std::string out;
  out.reserve(events.size() * 128);
  char buf[96];
  for (const ProvEvent& e : events) {
    out += "{\"trace_id\":\"";
    append_hex_id(&out, e.trace_id);
    std::snprintf(buf, sizeof(buf), "\",\"seq\":%llu,\"stage\":\"%s\"",
                  static_cast<unsigned long long>(e.seq), prov_stage_name(e.stage));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"ts_us\":%llu,\"tid\":%u,\"lane\":%u,\"a\":%llu,\"b\":%llu}\n",
                  static_cast<unsigned long long>(e.ts_us), e.tid, e.lane,
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out += buf;
  }
  return out;
}

std::string export_chrome_trace() {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[224];

  std::vector<SpanEvent> spans = SpanCollector::global().snapshot();
  for (const SpanEvent& e : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"pnm\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%llu,\"dur\":%llu,\"args\":{\"depth\":%u}}",
                  first ? "" : ",", e.name ? e.name : "?", e.tid,
                  static_cast<unsigned long long>(e.start_us),
                  static_cast<unsigned long long>(e.dur_us), e.depth);
    out += buf;
    first = false;
  }

  std::vector<ProvEvent> events = ProvenanceCollector::global().snapshot();
  for (const ProvEvent& e : events) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"prov:%s\",\"cat\":\"provenance\",\"ph\":\"i\",\"s\":\"t\","
        "\"pid\":1,\"tid\":%u,\"ts\":%llu,\"args\":{\"trace_id\":\"%016llx\","
        "\"seq\":%llu,\"lane\":%u,\"a\":%llu,\"b\":%llu}}",
        first ? "" : ",", prov_stage_name(e.stage), e.tid,
        static_cast<unsigned long long>(e.ts_us),
        static_cast<unsigned long long>(e.trace_id),
        static_cast<unsigned long long>(e.seq), e.lane,
        static_cast<unsigned long long>(e.a), static_cast<unsigned long long>(e.b));
    out += buf;
    first = false;
  }

  out += "]}";
  return out;
}

}  // namespace pnm::obs
