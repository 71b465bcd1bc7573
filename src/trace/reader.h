// The one reader of the .pnmtrace format (trace/format.h). TraceStreamParser
// checks the magic, the version and the CRC'd header frame, walks the record
// frames under the kMaxFrameBytes cap, and turns any byte stream, however
// truncated or corrupted, into per-record outcomes — never an out-of-bounds
// read or a crash. TraceReader (replay, trace-stat, the sink benchmark)
// feeds it the bytes its stream returns, a serve session the bytes its
// socket returns, and loadgen a whole trace file to find the frames it sends.
//
// Error containment levels:
//   * a frame whose CRC mismatches is reported (kBadCrc) and SKIPPED — the
//     length prefix still framed it, so the stream stays in sync;
//   * a payload that fails structural decode is reported (kBadRecord);
//   * a truncated tail (length prefix or payload cut short) is reported
//     (kTruncated) and ends the stream — there is nothing to resync on;
//   * a length prefix beyond kMaxFrameBytes is framing garbage (kOversized)
//     and ends the stream before any allocation.
//
// Any defect in the prologue or the header frame fails the header: the
// stream yields no records, and header_error() says why.
#pragma once

#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <string>

#include "trace/format.h"
#include "util/counters.h"

namespace pnm::trace {

enum class ReadStatus {
  kRecord,     ///< outcome.record is a verified, decoded record
  kBadCrc,     ///< frame skipped: stored CRC does not match the payload
  kBadRecord,  ///< frame skipped: CRC fine but payload structure malformed
  kTruncated,  ///< stream ends mid-frame; no further records
  kOversized,  ///< insane length prefix; no further records
};

/// True when the stream cannot continue past this outcome.
inline constexpr bool is_fatal(ReadStatus s) {
  return s == ReadStatus::kTruncated || s == ReadStatus::kOversized;
}

struct ReadOutcome {
  ReadStatus status = ReadStatus::kRecord;
  TraceRecord record;  ///< meaningful only when status == kRecord
};

/// Whole-file summary produced by TraceReader::stat().
struct TraceStat {
  std::size_t records = 0;
  std::size_t bad_crc = 0;
  std::size_t bad_record = 0;
  bool truncated = false;
  bool oversized = false;
  std::uint64_t first_time_us = 0;
  std::uint64_t last_time_us = 0;
  std::size_t wire_bytes = 0;  ///< total payload wire bytes across records
};

/// TraceStreamParser — the push-based framer: feed() appends whatever
/// bytes the transport produced (a frame may be split across any number of
/// feeds, or several frames may land in one) and poll() yields the outcomes
/// parseable from them. finish() marks the end of input: bytes still
/// buffered mid-frame then surface as kTruncated.
///
/// Typical session loop:
///
///   parser.feed(chunk);
///   while (auto out = parser.poll()) handle(*out);
///   ...                       // on EOF/disconnect:
///   parser.finish();
///   while (auto out = parser.poll()) handle(*out);
class TraceStreamParser {
 public:
  /// Header fully parsed and CRC-clean; meta() is meaningful.
  bool header_ready() const { return header_ready_; }
  /// Stream prefix (magic/version/header frame) was rejected; the parser
  /// yields nothing further. header_error() says why.
  bool header_failed() const { return header_failed_; }
  const std::string& header_error() const { return header_error_; }

  const TraceMeta& meta() const { return meta_; }
  std::uint16_t version() const { return version_; }

  /// Meter per-record outcomes (kTraceRecordsRead / kTraceCrcErrors /
  /// kTraceDecodeErrors) into `counters` as poll() produces them; null
  /// detaches.
  void meter_into(util::Counters* counters) { counters_ = counters; }

  /// Append transport bytes. Cheap: one buffer append, no parsing.
  void feed(ByteView bytes);
  /// Append up to `n` bytes read from `in` straight into the buffer (no
  /// staging copy). Returns how many the stream gave.
  std::size_t feed_from(std::istream& in, std::size_t n);
  /// Bytes the next parse step still lacks: the rest of the prologue, of a
  /// length prefix, or of the frame it announces. Feeding exactly this many
  /// never buffers a byte past the frame being completed.
  std::size_t wanted() const;

  /// Signal end of input (clean EOF or disconnect). Idempotent; further
  /// feeds are ignored.
  void finish();
  bool finished() const { return finished_; }

  /// Next outcome parseable from the buffered bytes, or nullopt when more
  /// input is needed (or the stream ended cleanly / fatally).
  std::optional<ReadOutcome> poll();

  /// A fatal outcome was emitted (or the header failed); the parser will
  /// yield nothing further.
  bool dead() const { return dead_; }

  /// Bytes buffered but not yet consumed by completed parse steps.
  std::size_t buffered() const { return buffer_.size() - head_; }
  /// Stream bytes consumed so far: the prologue, the header frame and every
  /// frame poll() has returned an outcome for.
  std::size_t consumed() const { return consumed_; }
  /// Stream bytes of the prologue and the header frame (once header_ready()).
  std::size_t header_bytes() const { return header_bytes_; }

  /// Drop the buffered bytes and the end-of-input state but keep the
  /// header: the next byte fed is read as the start of the first record
  /// frame. TraceReader::rewind seeks its stream there.
  void restart_records();

 private:
  /// The frame at the head of the buffer, or why there is none yet.
  struct Frame {
    enum Kind { kNone, kPartial, kOversized, kWhole } kind = kNone;
    ByteView payload;  ///< kWhole: a view into buffer_, valid until consume()
    bool crc_ok = false;
    std::size_t bytes = 0;  ///< kWhole: length prefix + payload + CRC
  };

  bool have(std::size_t n) const { return buffered() >= n; }
  const std::uint8_t* at(std::size_t offset) const { return buffer_.data() + head_ + offset; }
  std::uint32_t peek_u32(std::size_t offset) const;
  Frame peek_frame() const;
  void consume(std::size_t n);
  bool parse_header();

  /// Flat buffer with a consumed-prefix head offset, compacted when the
  /// dead prefix dominates — appends stay O(chunk), no per-byte shuffling.
  Bytes buffer_;
  std::size_t head_ = 0;
  std::size_t consumed_ = 0;
  std::size_t header_bytes_ = 0;
  bool finished_ = false;
  bool dead_ = false;
  bool header_ready_ = false;
  bool header_failed_ = false;
  bool saw_magic_ = false;
  std::string header_error_;
  TraceMeta meta_;
  std::uint16_t version_ = 0;
  util::Counters* counters_ = nullptr;
};

/// TraceReader — a pull front end over TraceStreamParser for a seekable
/// stream: next() feeds the parser exactly the bytes it lacks, read straight
/// into its buffer, until it yields an outcome.
class TraceReader {
 public:
  /// Read from a caller-owned seekable stream.
  explicit TraceReader(std::istream& in);
  /// Open `path`; valid() is false if the open or the header parse failed.
  explicit TraceReader(const std::string& path);

  /// Header parsed successfully (magic, version, CRC-clean metadata).
  bool valid() const { return parser_.header_ready(); }
  /// Human-readable reason when !valid().
  const std::string& header_error() const {
    return in_ ? parser_.header_error() : open_error_;
  }

  const TraceMeta& meta() const { return parser_.meta(); }
  std::uint16_t version() const { return parser_.version(); }

  /// Meter per-record outcomes (kTraceRecordsRead / kTraceCrcErrors /
  /// kTraceDecodeErrors) into `counters` as next() produces them; null
  /// detaches. The ingest pipeline and `pnm trace-stat` attach here so CRC
  /// and decode failures are attributed at the layer that detected them.
  void meter_into(util::Counters* counters) { parser_.meter_into(counters); }

  /// Next outcome, or nullopt at clean end-of-stream. After a fatal outcome
  /// (or on an invalid reader) always returns nullopt.
  std::optional<ReadOutcome> next();

  /// Seek back to the first record (valid readers only).
  void rewind();

  /// Scan the remaining stream, tally everything, then rewind.
  TraceStat stat();

 private:
  void read_header();
  /// Read what the parser lacks for its next step; finish it at end of stream.
  void fill();

  std::unique_ptr<std::ifstream> owned_;  ///< set by the path constructor
  std::istream* in_ = nullptr;
  std::string open_error_;
  TraceStreamParser parser_;
  std::streampos first_record_pos_{};
};

}  // namespace pnm::trace
