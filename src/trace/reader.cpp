#include "trace/reader.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"

namespace pnm::trace {

namespace {

constexpr std::size_t kPrologueBytes = sizeof(kMagic) + 2;  // magic + u16 version

}  // namespace

// ---------------------------------------------------------------------------
// TraceStreamParser
// ---------------------------------------------------------------------------

std::uint32_t TraceStreamParser::peek_u32(std::size_t offset) const {
  const std::uint8_t* b = at(offset);
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

void TraceStreamParser::consume(std::size_t n) {
  head_ += n;
  consumed_ += n;
  if (head_ == buffer_.size()) {
    // Everything parsed: reuse the allocation from the start.
    buffer_.clear();
    head_ = 0;
  } else if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    // Compact once the dead prefix dominates the buffer, so memory stays
    // bounded by the unparsed tail, not the whole session history.
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void TraceStreamParser::feed(ByteView bytes) {
  if (finished_ || dead_) return;
  append(buffer_, bytes);
}

std::size_t TraceStreamParser::feed_from(std::istream& in, std::size_t n) {
  if (finished_ || dead_ || n == 0) return 0;
  const std::size_t old = buffer_.size();
  buffer_.resize(old + n);
  const std::size_t got = static_cast<std::size_t>(in.rdbuf()->sgetn(
      reinterpret_cast<char*>(buffer_.data() + old), static_cast<std::streamsize>(n)));
  buffer_.resize(old + got);
  return got;
}

std::size_t TraceStreamParser::wanted() const {
  if (finished_ || dead_) return 0;
  std::size_t need = 4;
  if (!saw_magic_) {
    need = kPrologueBytes;
  } else if (have(4)) {
    const std::uint32_t len = peek_u32(0);
    if (len > kMaxFrameBytes) return 0;
    need = 4 + static_cast<std::size_t>(len) + 4;
  }
  return need > buffered() ? need - buffered() : 0;
}

void TraceStreamParser::finish() { finished_ = true; }

void TraceStreamParser::restart_records() {
  if (!header_ready_) return;
  buffer_.clear();
  head_ = 0;
  consumed_ = header_bytes_;
  finished_ = false;
  dead_ = false;
}

TraceStreamParser::Frame TraceStreamParser::peek_frame() const {
  Frame f;
  if (!have(4)) {
    f.kind = buffered() == 0 ? Frame::kNone : Frame::kPartial;
    return f;
  }
  const std::uint32_t len = peek_u32(0);
  if (len > kMaxFrameBytes) {
    f.kind = Frame::kOversized;
  } else if (!have(4 + static_cast<std::size_t>(len) + 4)) {
    f.kind = Frame::kPartial;
  } else {
    f.kind = Frame::kWhole;
    f.payload = ByteView(at(4), len);
    f.crc_ok = util::crc32(f.payload) == peek_u32(4 + len);
    f.bytes = 4 + static_cast<std::size_t>(len) + 4;
  }
  return f;
}

bool TraceStreamParser::parse_header() {
  auto fail = [&](const std::string& why) {
    header_failed_ = true;
    dead_ = true;
    header_error_ = why;
    return false;
  };
  if (!saw_magic_) {
    const std::size_t n = std::min(buffered(), sizeof(kMagic));
    if (n > 0 && std::memcmp(at(0), kMagic, n) != 0)
      return fail("bad magic (not a .pnmtrace stream)");
    if (!have(kPrologueBytes)) {
      if (finished_) return fail("truncated magic/version");
      return false;
    }
    version_ = static_cast<std::uint16_t>(*at(6) | (*at(7) << 8));
    if (version_ != kFormatVersion)
      return fail("unsupported format version " + std::to_string(version_));
    consume(kPrologueBytes);
    saw_magic_ = true;
  }
  // The header is an ordinary CRC frame holding the metadata map. Unlike a
  // record frame, any defect in it fails the whole stream: a sink cannot be
  // rebuilt from untrusted metadata.
  const Frame f = peek_frame();
  if (f.kind == Frame::kOversized) return fail("oversized header frame");
  if (f.kind != Frame::kWhole) {
    if (finished_) return fail("truncated header frame");
    return false;
  }
  if (!f.crc_ok) return fail("header CRC mismatch");
  auto meta = TraceMeta::decode(f.payload);
  if (!meta) return fail("malformed header metadata");
  consume(f.bytes);
  meta_ = std::move(*meta);
  header_bytes_ = consumed_;
  header_ready_ = true;
  return true;
}

std::optional<ReadOutcome> TraceStreamParser::poll() {
  if (dead_) return std::nullopt;
  if (!header_ready_ && !parse_header()) return std::nullopt;

  const Frame f = peek_frame();
  switch (f.kind) {
    case Frame::kNone:
      return std::nullopt;  // clean end, or no bytes of the next frame yet
    case Frame::kPartial:
      if (!finished_) return std::nullopt;
      dead_ = true;  // input ended mid-frame
      return ReadOutcome{ReadStatus::kTruncated, {}};
    case Frame::kOversized:
      dead_ = true;
      return ReadOutcome{ReadStatus::kOversized, {}};
    case Frame::kWhole:
      break;
  }

  ReadOutcome out;
  if (!f.crc_ok) {
    if (counters_) counters_->add(util::Metric::kTraceCrcErrors);
    out.status = ReadStatus::kBadCrc;
  } else if (auto record = TraceRecord::decode(f.payload)) {
    if (counters_) counters_->add(util::Metric::kTraceRecordsRead);
    out.record = std::move(*record);
  } else {
    if (counters_) counters_->add(util::Metric::kTraceDecodeErrors);
    out.status = ReadStatus::kBadRecord;
  }
  consume(f.bytes);
  return out;
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(std::istream& in) : in_(&in) { read_header(); }

TraceReader::TraceReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!owned_->is_open()) {
    open_error_ = "cannot open '" + path + "'";
    return;
  }
  in_ = owned_.get();
  read_header();
}

void TraceReader::read_header() {
  // wanted() never asks past the header frame, so the header completes with
  // no record byte buffered and the stream sits at the first record.
  while (!parser_.header_ready() && !parser_.dead()) {
    fill();
    parser_.poll();
  }
  if (valid()) first_record_pos_ = in_->tellg();
}

void TraceReader::fill() {
  if (parser_.feed_from(*in_, parser_.wanted()) == 0) parser_.finish();
}

std::optional<ReadOutcome> TraceReader::next() {
  if (!valid()) return std::nullopt;
  while (true) {
    if (auto out = parser_.poll()) return out;
    if (parser_.dead() || parser_.finished()) return std::nullopt;
    fill();
  }
}

void TraceReader::rewind() {
  if (!valid()) return;
  in_->clear();
  in_->seekg(first_record_pos_);
  parser_.restart_records();
}

TraceStat TraceReader::stat() {
  TraceStat s;
  if (!valid()) return s;
  rewind();
  bool first = true;
  while (auto outcome = next()) {
    switch (outcome->status) {
      case ReadStatus::kRecord:
        ++s.records;
        s.wire_bytes += outcome->record.wire.size();
        if (first) {
          s.first_time_us = outcome->record.time_us;
          first = false;
        }
        s.last_time_us = outcome->record.time_us;
        break;
      case ReadStatus::kBadCrc:
        ++s.bad_crc;
        break;
      case ReadStatus::kBadRecord:
        ++s.bad_record;
        break;
      case ReadStatus::kTruncated:
        s.truncated = true;
        break;
      case ReadStatus::kOversized:
        s.oversized = true;
        break;
    }
  }
  rewind();
  return s;
}

}  // namespace pnm::trace
