// Columnar binary trace format ("bin"), the second TraceSink format.
//
// JSONL traces spend most of their bytes re-printing field names and decimal
// digits; at million-cell scale the trace file dwarfs the results it
// records. The binary format stores each field as a column inside per-group
// blocks, encoded to exploit what trace columns actually look like:
//
//   * cell indices are consecutive within a group      -> varint deltas
//   * adversary/placement are constant within a group  -> one varint each
//   * round counts cluster tightly                     -> zigzag varint deltas
//   * stabilised is a bool                             -> bitmap
//   * avg_pulls needs bit-exact round-trips            -> raw little-endian
//     IEEE doubles (byte-compare of traces must keep working)
//
// File layout: one header block, then one block per (adversary, placement)
// group, in group order. Every block is
//
//   varint(payload_size) || payload || u32le crc32(payload)
//
// reusing util::crc32 like the JSONL wire lines, so a torn tail or bit flip
// fails loudly at read time and resume can trim to whole blocks
// (truncate_to_blocks -- the binary analogue of truncate_to_lines, with
// blocks aligned to group boundaries exactly like the group-boundary commits
// of the JSONL format).
//
// The encoding is a pure function of the rows: no timestamps, no map
// iteration, no float re-formatting -- so like the JSONL format the bytes
// are identical across thread counts and execution backends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace synccount::sim {

// One execution's trace row: the same fields as a JSONL trace line, with
// adversary/placement as indices into the header's name tables. Per-round
// outputs are not representable ("bin" traces are summaries; use jsonl with
// outputs=true for full transcripts).
struct TraceRow {
  std::uint64_t cell = 0;
  std::uint32_t adversary = 0;  // index into TraceHeader::adversaries
  std::uint32_t placement = 0;  // index into TraceHeader::placements
  int seed_index = 0;           // implicit: row position within its group
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  bool stabilised = false;
  std::uint64_t stabilisation_round = 0;
  std::uint64_t suffix_length = 0;
  std::uint64_t max_window = 0;
  std::uint64_t max_pulls = 0;
  double avg_pulls = 0.0;
};

struct TraceHeader {
  std::vector<std::string> adversaries;
  std::vector<std::string> placements;
};

// The framed header block (magic + format version + grid name tables).
std::string encode_trace_header(const TraceHeader& header);

// The framed block for one group's rows (cells in cell order). `rows` must
// be non-empty and share one (adversary, placement).
std::string encode_trace_block(std::uint64_t group, const std::vector<TraceRow>& rows);

// A decoded binary trace file.
struct BinaryTrace {
  TraceHeader header;
  std::vector<TraceRow> rows;    // concatenated group rows, in cell order
  std::size_t blocks = 0;        // total blocks read, header included
};

// Decodes a whole file's bytes. Throws (SC_CHECK) on a missing/corrupt
// header, a CRC mismatch, or trailing garbage -- partial files are the
// caller's business (see truncate_to_blocks).
BinaryTrace read_binary_trace(std::string_view bytes);

// Truncates `path` to its first `blocks` whole CRC-valid blocks (header
// block included in the count): the resume surgery for binary traces, where
// block k+1 holds exactly the rows of the k-th finished group. Throws when
// the file's valid prefix has fewer blocks than requested.
void truncate_to_blocks(const std::string& path, std::uint64_t blocks);

}  // namespace synccount::sim
