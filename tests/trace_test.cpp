// Trace format tests: writer/reader round trips, header metadata, and the
// error-containment contract — every class of damage (flipped bytes, cut
// tails, insane length prefixes, malformed payloads) must surface as the
// documented per-record outcome and never break stream sync on skippable
// errors or continue past fatal ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "net/report.h"
#include "net/wire.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/crc32.h"

namespace pnm {
namespace {

trace::TraceMeta sample_meta() {
  trace::TraceMeta meta;
  meta.set_u64(trace::kMetaSeed, 42);
  meta.set_u64(trace::kMetaForwarders, 8);
  meta.set(trace::kMetaScheme, "pnm");
  meta.set(trace::kMetaAttack, "source-only");
  return meta;
}

net::Packet sample_packet(std::uint32_t n) {
  net::Packet p;
  p.report = net::Report{n, 3, 7, n}.encode();
  net::Mark m;
  m.id_field = {static_cast<std::uint8_t>(n), 0x22};
  m.mac = {0x01, 0x02, 0x03, 0x04};
  p.marks.push_back(std::move(m));
  p.delivered_by = static_cast<NodeId>(1 + n % 5);
  return p;
}

/// A well-formed trace with `records` packets, as one in-memory blob.
std::string build_blob(std::size_t records) {
  std::ostringstream out;
  trace::TraceWriter writer(out, sample_meta());
  for (std::size_t n = 0; n < records; ++n)
    writer.append(sample_packet(static_cast<std::uint32_t>(n)),
                  static_cast<double>(n) * 0.25);
  writer.flush();
  return out.str();
}

std::size_t count_records(trace::TraceReader& reader, std::size_t* errors = nullptr) {
  std::size_t n = 0;
  while (auto outcome = reader.next()) {
    if (outcome->status == trace::ReadStatus::kRecord)
      ++n;
    else if (errors)
      ++*errors;
  }
  return n;
}

// ---------------------------------------------------------------------------
// CRC-32 reference vectors (IEEE 802.3).

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(util::crc32(ByteView{}), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(ByteView(reinterpret_cast<const std::uint8_t*>(check.data()),
                                 check.size())),
            0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  std::uint32_t state = util::crc32_init();
  state = util::crc32_update(state, ByteView(data.data(), 100));
  state = util::crc32_update(state, ByteView(data.data() + 100, 200));
  EXPECT_EQ(util::crc32_final(state), util::crc32(data));
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(TraceFormat, MetaEncodeDecodeRoundTrip) {
  trace::TraceMeta meta = sample_meta();
  meta.set("custom-key", "custom value with spaces");
  auto decoded = trace::TraceMeta::decode(meta.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->entries(), meta.entries());
  EXPECT_EQ(decoded->get_u64(trace::kMetaSeed), 42u);
  EXPECT_EQ(decoded->get("custom-key"), "custom value with spaces");
  EXPECT_FALSE(decoded->get("absent-key").has_value());
}

TEST(TraceFormat, RecordEncodeDecodeRoundTrip) {
  trace::TraceRecord rec;
  rec.time_us = 1234567;
  rec.delivered_by = 9;
  rec.wire = net::encode_packet(sample_packet(3));
  auto decoded = trace::TraceRecord::decode(rec.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->time_us, rec.time_us);
  EXPECT_EQ(decoded->delivered_by, rec.delivered_by);
  EXPECT_EQ(decoded->wire, rec.wire);
}

TEST(TraceIo, WriteThenReadBackEveryRecord) {
  std::string blob = build_blob(25);
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid()) << reader.header_error();
  EXPECT_EQ(reader.version(), trace::kFormatVersion);
  EXPECT_EQ(reader.meta().get_u64(trace::kMetaSeed), 42u);
  EXPECT_EQ(reader.meta().get(trace::kMetaScheme), "pnm");

  std::size_t n = 0;
  while (auto outcome = reader.next()) {
    ASSERT_EQ(outcome->status, trace::ReadStatus::kRecord);
    EXPECT_EQ(outcome->record.time_us,
              static_cast<std::uint64_t>(n) * 250000);  // 0.25 s steps
    EXPECT_EQ(outcome->record.wire,
              net::encode_packet(sample_packet(static_cast<std::uint32_t>(n))));
    ++n;
  }
  EXPECT_EQ(n, 25u);
}

TEST(TraceIo, RewindReplaysFromFirstRecord) {
  std::string blob = build_blob(10);
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  EXPECT_EQ(count_records(reader), 10u);
  EXPECT_FALSE(reader.next().has_value());  // drained
  reader.rewind();
  EXPECT_EQ(count_records(reader), 10u);
}

TEST(TraceIo, StatTalliesAndRewinds) {
  std::string blob = build_blob(12);
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  trace::TraceStat s = reader.stat();
  EXPECT_EQ(s.records, 12u);
  EXPECT_EQ(s.bad_crc, 0u);
  EXPECT_FALSE(s.truncated);
  EXPECT_EQ(s.first_time_us, 0u);
  EXPECT_EQ(s.last_time_us, 11u * 250000);
  EXPECT_GT(s.wire_bytes, 0u);
  // stat() leaves the reader positioned at the first record.
  EXPECT_EQ(count_records(reader), 12u);
}

TEST(TraceIo, WriterToUnopenablePathReportsNotOk) {
  trace::TraceWriter writer("/nonexistent-dir-xyz/trace.pnmtrace", sample_meta());
  EXPECT_FALSE(writer.ok());
  writer.append(sample_packet(0), 0.0);  // must be a safe no-op
  EXPECT_EQ(writer.records_written(), 0u);
}

// ---------------------------------------------------------------------------
// Header hardening.

TEST(TraceHardening, RejectsBadMagic) {
  std::string blob = build_blob(3);
  blob[0] = 'X';
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.valid());
  EXPECT_NE(reader.header_error().find("magic"), std::string::npos);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TraceHardening, RejectsUnsupportedVersion) {
  std::string blob = build_blob(3);
  blob[6] = static_cast<char>(0xEE);  // version lives right after the magic
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.valid());
  EXPECT_NE(reader.header_error().find("version"), std::string::npos);
}

TEST(TraceHardening, RejectsCorruptedHeaderFrame) {
  std::string blob = build_blob(3);
  blob[8 + 4 + 1] ^= 0x40;  // a byte inside the header frame's payload
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  EXPECT_FALSE(reader.valid());
  EXPECT_NE(reader.header_error().find("CRC"), std::string::npos);
}

TEST(TraceHardening, RejectsEmptyAndTinyStreams) {
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    std::string blob = build_blob(1).substr(0, cut);
    std::istringstream in(blob);
    trace::TraceReader reader(in);
    EXPECT_FALSE(reader.valid()) << "prefix of " << cut << " bytes";
    EXPECT_FALSE(reader.next().has_value());
  }
}

TEST(TraceHardening, MissingFileIsInvalidNotFatal) {
  trace::TraceReader reader(std::string("/nonexistent-dir-xyz/trace.pnmtrace"));
  EXPECT_FALSE(reader.valid());
  EXPECT_FALSE(reader.next().has_value());
}

// ---------------------------------------------------------------------------
// Record-level containment.

/// Byte offset where the first record frame starts (end of header frame).
std::size_t first_record_offset(const std::string& blob) {
  // magic(6) + version(2) + u32 len + payload + u32 crc
  std::uint32_t header_len = static_cast<std::uint8_t>(blob[8]) |
                             (static_cast<std::uint32_t>(static_cast<std::uint8_t>(blob[9]))
                              << 8) |
                             (static_cast<std::uint32_t>(static_cast<std::uint8_t>(blob[10]))
                              << 16) |
                             (static_cast<std::uint32_t>(static_cast<std::uint8_t>(blob[11]))
                              << 24);
  return 8 + 4 + header_len + 4;
}

TEST(TraceHardening, FlippedRecordByteFailsOnlyThatRecord) {
  std::string blob = build_blob(8);
  std::size_t rec0 = first_record_offset(blob);
  blob[rec0 + 4 + 2] ^= 0x01;  // inside the first record's payload

  std::istringstream in(blob);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  std::size_t bad = 0;
  std::size_t good = 0;
  while (auto outcome = reader.next()) {
    ASSERT_FALSE(is_fatal(outcome->status));
    if (outcome->status == trace::ReadStatus::kRecord)
      ++good;
    else if (outcome->status == trace::ReadStatus::kBadCrc)
      ++bad;
  }
  EXPECT_EQ(bad, 1u);
  EXPECT_EQ(good, 7u);  // stream stayed in sync past the damage
}

TEST(TraceHardening, TruncatedTailEndsStreamWithTruncatedOutcome) {
  std::string blob = build_blob(6);
  std::string cut = blob.substr(0, blob.size() - 3);  // cut inside the last frame
  std::istringstream in(cut);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  std::size_t good = 0;
  bool saw_truncated = false;
  while (auto outcome = reader.next()) {
    if (outcome->status == trace::ReadStatus::kRecord) ++good;
    if (outcome->status == trace::ReadStatus::kTruncated) saw_truncated = true;
  }
  EXPECT_EQ(good, 5u);
  EXPECT_TRUE(saw_truncated);
  EXPECT_FALSE(reader.next().has_value());  // fatal: no resurrection
}

TEST(TraceHardening, OversizedLengthPrefixAbortsBeforeAllocating) {
  std::string blob = build_blob(2);
  ByteWriter bomb;
  bomb.u32(0x7FFFFFFFu);  // way past kMaxFrameBytes
  blob.append(reinterpret_cast<const char*>(bomb.bytes().data()), bomb.bytes().size());

  std::istringstream in(blob);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  std::size_t good = 0;
  bool saw_oversized = false;
  while (auto outcome = reader.next()) {
    if (outcome->status == trace::ReadStatus::kRecord) ++good;
    if (outcome->status == trace::ReadStatus::kOversized) saw_oversized = true;
  }
  EXPECT_EQ(good, 2u);
  EXPECT_TRUE(saw_oversized);
}

TEST(TraceHardening, CrcCleanButMalformedPayloadIsBadRecordAndSkipped) {
  std::string blob = build_blob(2);
  // Append a frame whose CRC is valid but whose payload is too short to be a
  // record (needs time_us + delivered_by at minimum).
  Bytes payload = {0x01, 0x02, 0x03};
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.raw(payload);
  frame.u32(util::crc32(payload));
  blob.append(reinterpret_cast<const char*>(frame.bytes().data()), frame.bytes().size());
  // And a good record after it, to prove the stream resyncs.
  {
    std::ostringstream tail;
    trace::TraceWriter writer(tail, sample_meta());
    std::string full = tail.str();
    std::ostringstream one;
    trace::TraceWriter w2(one, sample_meta());
    w2.append(sample_packet(77), 9.0);
    w2.flush();
    blob.append(one.str().substr(full.size()));  // just the record frame
  }

  std::istringstream in(blob);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  std::size_t good = 0, bad_record = 0;
  while (auto outcome = reader.next()) {
    ASSERT_FALSE(is_fatal(outcome->status));
    if (outcome->status == trace::ReadStatus::kRecord) ++good;
    if (outcome->status == trace::ReadStatus::kBadRecord) ++bad_record;
  }
  EXPECT_EQ(bad_record, 1u);
  EXPECT_EQ(good, 3u);
}

TEST(TraceHardening, StatOnDamagedStreamCountsEveryClass) {
  std::string blob = build_blob(5);
  std::size_t rec0 = first_record_offset(blob);
  blob[rec0 + 4 + 1] ^= 0x80;                         // CRC-fail record 0
  std::string cut = blob.substr(0, blob.size() - 2);  // truncate the tail

  std::istringstream in(cut);
  trace::TraceReader reader(in);
  ASSERT_TRUE(reader.valid());
  trace::TraceStat s = reader.stat();
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.bad_crc, 1u);
  EXPECT_TRUE(s.truncated);
  EXPECT_FALSE(s.oversized);
}

// ---------------------------------------------------------------------------
// The framer fed directly, as a socket session feeds it.

ByteView blob_view(const std::string& blob, std::size_t off, std::size_t len) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(blob.data()) + off, len);
}

struct ParsedStream {
  std::size_t records = 0;
  std::size_t bad_crc = 0;
  std::size_t bad_record = 0;
  bool truncated = false;
  bool oversized = false;
  std::vector<Bytes> wires;
};

/// Feed `blob` into a parser in `chunk`-sized pieces (finishing at the end)
/// and collect every outcome.
ParsedStream feed_in_chunks(trace::TraceStreamParser& parser, const std::string& blob,
                            std::size_t chunk) {
  ParsedStream out;
  auto drain = [&] {
    while (auto outcome = parser.poll()) {
      switch (outcome->status) {
        case trace::ReadStatus::kRecord:
          ++out.records;
          out.wires.push_back(outcome->record.wire);
          break;
        case trace::ReadStatus::kBadCrc: ++out.bad_crc; break;
        case trace::ReadStatus::kBadRecord: ++out.bad_record; break;
        case trace::ReadStatus::kTruncated: out.truncated = true; break;
        case trace::ReadStatus::kOversized: out.oversized = true; break;
      }
    }
  };
  for (std::size_t off = 0; off < blob.size(); off += chunk) {
    parser.feed(blob_view(blob, off, std::min(chunk, blob.size() - off)));
    drain();
  }
  parser.finish();
  drain();
  return out;
}

TEST(TraceStreamParser, ReassemblesAcrossEveryChunkSize) {
  std::string blob = build_blob(12);
  // Byte-at-a-time, tiny, prime-sized, and larger-than-frame chunks must all
  // produce the identical record stream.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                            std::size_t{64}, std::size_t{4096}}) {
    trace::TraceStreamParser parser;
    ParsedStream got = feed_in_chunks(parser, blob, chunk);
    ASSERT_TRUE(parser.header_ready()) << "chunk " << chunk;
    EXPECT_EQ(parser.meta().get_u64(trace::kMetaSeed), 42u);
    EXPECT_EQ(got.records, 12u) << "chunk " << chunk;
    EXPECT_FALSE(got.truncated);
    for (std::size_t n = 0; n < got.wires.size(); ++n)
      EXPECT_EQ(got.wires[n],
                net::encode_packet(sample_packet(static_cast<std::uint32_t>(n))));
  }
}

TEST(TraceStreamParser, HeaderSplitAcrossFeeds) {
  std::string blob = build_blob(2);
  trace::TraceStreamParser parser;
  // Drip the magic, version and header frame one byte at a time; the header
  // must become ready exactly once all its bytes are in.
  std::size_t header_end = first_record_offset(blob);
  for (std::size_t i = 0; i < header_end - 1; ++i)
    parser.feed(blob_view(blob, i, 1));
  // Header parsing is poll-driven: an incomplete header yields no outcome
  // and leaves the parser waiting (not dead, not failed).
  EXPECT_FALSE(parser.poll().has_value());
  EXPECT_FALSE(parser.header_ready());
  EXPECT_FALSE(parser.header_failed());
  parser.feed(blob_view(blob, header_end - 1, blob.size() - (header_end - 1)));
  std::size_t records = 0;
  while (auto outcome = parser.poll())
    if (outcome->status == trace::ReadStatus::kRecord) ++records;
  EXPECT_TRUE(parser.header_ready());
  EXPECT_EQ(parser.version(), trace::kFormatVersion);
  EXPECT_EQ(records, 2u);
}

TEST(TraceStreamParser, MidFrameDisconnectIsTruncated) {
  std::string blob = build_blob(5);
  trace::TraceStreamParser parser;
  // The peer vanishes 3 bytes into the last record frame.
  ParsedStream got = feed_in_chunks(parser, blob.substr(0, blob.size() - 3), 7);
  EXPECT_EQ(got.records, 4u);
  EXPECT_TRUE(got.truncated);
  EXPECT_TRUE(parser.dead());
  // A dead parser ignores resurrection attempts.
  parser.feed(blob_view(blob, 0, blob.size()));
  EXPECT_FALSE(parser.poll().has_value());
}

TEST(TraceStreamParser, MidHeaderDisconnectFailsHeader) {
  std::string blob = build_blob(1);
  trace::TraceStreamParser parser;
  parser.feed(blob_view(blob, 0, 10));  // magic + version + 2 header bytes
  parser.finish();
  EXPECT_FALSE(parser.poll().has_value());
  EXPECT_TRUE(parser.header_failed());
  EXPECT_TRUE(parser.dead());
}

TEST(TraceStreamParser, BadCrcRecordSkippedStreamStaysInSync) {
  std::string blob = build_blob(6);
  std::size_t rec0 = first_record_offset(blob);
  blob[rec0 + 4 + 2] ^= 0x01;
  trace::TraceStreamParser parser;
  ParsedStream got = feed_in_chunks(parser, blob, 11);
  EXPECT_EQ(got.bad_crc, 1u);
  EXPECT_EQ(got.records, 5u);
  EXPECT_FALSE(parser.dead());
}

TEST(TraceStreamParser, OversizedLengthPrefixKillsStream) {
  std::string blob = build_blob(2);
  ByteWriter bomb;
  bomb.u32(0x7FFFFFFFu);
  blob.append(reinterpret_cast<const char*>(bomb.bytes().data()), bomb.bytes().size());
  trace::TraceStreamParser parser;
  ParsedStream got = feed_in_chunks(parser, blob, 13);
  EXPECT_EQ(got.records, 2u);
  EXPECT_TRUE(got.oversized);
  EXPECT_TRUE(parser.dead());
}

TEST(TraceStreamParser, RejectsBadMagicImmediately) {
  std::string blob = build_blob(1);
  blob[0] = 'X';
  trace::TraceStreamParser parser;
  parser.feed(blob_view(blob, 0, blob.size()));
  EXPECT_FALSE(parser.poll().has_value());
  EXPECT_TRUE(parser.header_failed());
  EXPECT_NE(parser.header_error().find("magic"), std::string::npos);
}

/// One outcome as text: a status letter, then a record's wire bytes.
std::string outcome_text(const trace::ReadOutcome& o) {
  std::string text(1, "RCBTO"[static_cast<int>(o.status)]);
  if (o.status == trace::ReadStatus::kRecord)
    text.append(o.record.wire.begin(), o.record.wire.end());
  return text;
}

/// Every outcome of `blob` fed to a parser as [0, split) and [split, end),
/// then finished; a trailing "H" when the header was refused.
std::vector<std::string> parser_outcomes(const std::string& blob, std::size_t split) {
  trace::TraceStreamParser parser;
  std::vector<std::string> out;
  auto drain = [&] {
    while (auto outcome = parser.poll()) out.push_back(outcome_text(*outcome));
  };
  parser.feed(blob_view(blob, 0, split));
  drain();
  parser.feed(blob_view(blob, split, blob.size() - split));
  drain();
  parser.finish();
  drain();
  if (parser.header_failed()) out.push_back("H");
  return out;
}

/// The same through TraceReader over an istringstream.
std::vector<std::string> reader_outcomes(const std::string& blob) {
  std::istringstream in(blob);
  trace::TraceReader reader(in);
  std::vector<std::string> out;
  while (auto outcome = reader.next()) out.push_back(outcome_text(*outcome));
  EXPECT_FALSE(reader.next().has_value());  // an ended stream stays ended
  if (!reader.valid()) out.push_back("H");
  return out;
}

/// True when no outcome follows a fatal one (kTruncated 'T', kOversized 'O').
bool nothing_after_fatal(const std::vector<std::string>& outcomes) {
  for (std::size_t i = 0; i + 1 < outcomes.size(); ++i)
    if (outcomes[i][0] == 'T' || outcomes[i][0] == 'O') return false;
  return true;
}

TEST(TraceStreamParser, MatchesTraceReaderOutcomeForOutcome) {
  // One framer behind every reader: a damaged stream gives the same outcome
  // sequence fed whole, split in two at every byte offset, or read through
  // TraceReader. The damage: a CRC-bad record, a CRC-clean malformed record
  // and a tail cut inside the last frame.
  const std::string four = build_blob(4);
  std::string blob = four;
  blob[first_record_offset(blob) + 4 + 1] ^= 0x80;  // CRC-fail record 0
  const Bytes malformed = {0x01, 0x02, 0x03};         // too short to be a record
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(malformed.size()));
  frame.raw(malformed);
  frame.u32(util::crc32(malformed));
  blob.append(reinterpret_cast<const char*>(frame.bytes().data()), frame.bytes().size());
  const std::string last_frame = build_blob(5).substr(four.size());
  blob.append(last_frame.substr(0, last_frame.size() - 3));

  const std::vector<std::string> whole = parser_outcomes(blob, blob.size());
  std::string codes;
  for (const std::string& o : whole) codes += o[0];
  EXPECT_EQ(codes, "CRRRBT");
  EXPECT_EQ(reader_outcomes(blob), whole);
  for (std::size_t split = 0; split <= blob.size(); ++split)
    ASSERT_EQ(parser_outcomes(blob, split), whole) << "split at byte " << split;

  // Flip each byte of a small trace in turn: whatever the damage, no crash,
  // nothing after a fatal outcome, and both front ends agree.
  const std::string small = build_blob(3);
  for (std::size_t at = 0; at < small.size(); ++at) {
    std::string flipped = small;
    flipped[at] ^= 0xFF;
    const std::vector<std::string> got = parser_outcomes(flipped, flipped.size());
    EXPECT_TRUE(nothing_after_fatal(got)) << "flip at byte " << at;
    ASSERT_EQ(reader_outcomes(flipped), got) << "flip at byte " << at;
  }
}

}  // namespace
}  // namespace pnm
