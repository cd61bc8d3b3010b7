// Error-path tests for the wire formats (sim/experiment_io.hpp): spec files
// (format/version gates), shard partials (truncated JSONL, duplicate
// headers, corrupted lines), checkpoint scanning tolerance, and the
// line-truncation surgery used on resume. The happy paths live in
// shard_test.cpp and sink_test.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "counting/table_algorithm.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "synthesis/known_tables.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;

sim::ExperimentSpec small_spec() {
  sim::ExperimentSpec spec;
  counting::AlgorithmSpec algo;
  algo.kind = counting::AlgorithmSpec::Kind::kTable;
  algo.table_name = "3states";
  spec.algorithm = algo;
  spec.adversaries = {"split", "silent"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}};
  spec.seeds = 4;
  spec.max_rounds = 48;
  spec.margin = 8;
  return spec;
}

std::string spec_file_text(const sim::ExperimentSpec& spec) {
  std::ostringstream out;
  write_spec_file(out, spec);
  return out.str();
}

std::string partial_text(const sim::ExperimentSpec& spec) {
  const auto plan = sim::plan_shards(spec, 1, 0);
  const auto result = sim::Engine(1).run(spec, plan);
  std::ostringstream out;
  write_partial(out, make_partial(spec, plan, result));
  return out.str();
}

void expect_read_spec_throws(const std::string& text, const std::string& what) {
  std::istringstream in(text);
  try {
    sim::read_spec_file(in, "test.json");
    FAIL() << "expected failure: " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

void expect_read_partial_throws(const std::string& text, const std::string& what) {
  std::istringstream in(text);
  try {
    sim::read_partial(in, "test.jsonl");
    FAIL() << "expected failure: " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

// Tampers with the payload of the (first) line containing `from` and
// re-signs its CRC, so the semantic validation under test fires instead of
// the integrity gate.
std::string tamper_and_resign(const std::string& text, const std::string& from,
                              const std::string& to) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  std::size_t line_no = 0;
  bool done = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!done && line.find(from) != std::string::npos) {
      std::string payload = sim::crc_unframe(line, "tamper", line_no);
      const std::size_t at = payload.find(from);
      if (at != std::string::npos) {
        payload.replace(at, from.size(), to);
        line = sim::crc_frame(payload);
        done = true;
      }
    }
    out << line << '\n';
  }
  EXPECT_TRUE(done) << "pattern not found: " << from;
  return out.str();
}

// --- Spec files --------------------------------------------------------------

TEST(SpecFile, RoundTripsByteStable) {
  const auto spec = small_spec();
  const std::string text = spec_file_text(spec);
  std::istringstream in(text);
  const sim::ExperimentSpec back = sim::read_spec_file(in, "spec.json");
  EXPECT_EQ(spec_file_text(back), text);
  // The round-tripped spec drives the engine identically.
  const auto a = sim::Engine(1).run(spec);
  const auto b = sim::Engine(1).run(back);
  EXPECT_EQ(sim::aggregate_to_json(a.total).dump(), sim::aggregate_to_json(b.total).dump());
}

TEST(SpecFile, RejectsEmptyWrongFormatAndUnknownVersion) {
  expect_read_spec_throws("", "empty spec file");
  expect_read_spec_throws("{\"format\":\"something-else\",\"version\":1,\"spec\":{}}\n",
                          "not a synccount-spec file");
  std::string text = spec_file_text(small_spec());
  const std::string v1 = "\"version\":1";
  text.replace(text.find(v1), v1.size(), "\"version\":99");
  expect_read_spec_throws(text, "unsupported spec version");
}

TEST(SpecFile, RejectsUnknownTraceFormatsNamingTheTraceFile) {
  sim::ExperimentSpec spec = small_spec();
  spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, "tr.csv", "jsonl", false});
  const std::string text = spec_file_text(spec);
  const std::string jsonl = "\"format\":\"jsonl\"";
  ASSERT_NE(text.find(jsonl), std::string::npos);
  for (const char* format : {"csv", "xml"}) {
    std::string bad = text;
    bad.replace(bad.find(jsonl), jsonl.size(), "\"format\":\"" + std::string(format) + "\"");
    expect_read_spec_throws(bad, "tr.csv: unknown trace format: " + std::string(format));
  }
}

TEST(SpecFile, RejectsTruncatedJson) {
  const std::string text = spec_file_text(small_spec());
  expect_read_spec_throws(text.substr(0, text.size() / 2), "bad JSON");
}

// The wire-versioning contract: exact specs never emit a "stats" field and
// stay on the pre-sketch v3 bytes; sketch specs tag themselves and move the
// partial header to v4.

TEST(SpecFile, SketchSpecsCarryTheStatsFieldExactOnesDoNot) {
  EXPECT_EQ(spec_file_text(small_spec()).find("\"stats\""), std::string::npos);

  sim::ExperimentSpec spec = small_spec();
  spec.stats = util::StatsMode::kSketch;
  const std::string text = spec_file_text(spec);
  EXPECT_NE(text.find("\"stats\":\"sketch\""), std::string::npos);
  std::istringstream in(text);
  const sim::ExperimentSpec back = sim::read_spec_file(in, "spec.json");
  EXPECT_EQ(back.stats, util::StatsMode::kSketch);
  EXPECT_EQ(spec_file_text(back), text);
}

TEST(ReadPartial, HeaderVersionFollowsTheStatsMode) {
  EXPECT_NE(partial_text(small_spec()).find("\"version\":3"), std::string::npos);

  sim::ExperimentSpec spec = small_spec();
  spec.stats = util::StatsMode::kSketch;
  const std::string text = partial_text(spec);
  EXPECT_NE(text.find("\"version\":4"), std::string::npos);
  // The sketch partial round-trips, and re-serialising is byte-stable --
  // including the per-group sketch payloads.
  std::istringstream in(text);
  const sim::ShardPartial partial = sim::read_partial(in, "test.jsonl");
  std::ostringstream out;
  write_partial(out, partial);
  EXPECT_EQ(out.str(), text);
}

TEST(ReadPartial, RejectsVersionStatsModeDisagreements) {
  // A v3 header over a sketch-tagged spec (and vice versa) is a forged or
  // hand-edited file, not a format we ever wrote.
  sim::ExperimentSpec sketch_spec = small_spec();
  sketch_spec.stats = util::StatsMode::kSketch;
  expect_read_partial_throws(
      tamper_and_resign(partial_text(sketch_spec), "\"version\":4", "\"version\":3"),
      "format version disagrees with the spec's stats mode");
  expect_read_partial_throws(
      tamper_and_resign(partial_text(small_spec()), "\"version\":3", "\"version\":4"),
      "format version disagrees with the spec's stats mode");
}

// --- Partial files -----------------------------------------------------------

TEST(ReadPartial, RejectsUnknownVersion) {
  const std::string text = tamper_and_resign(partial_text(small_spec()),
                                             "\"version\":3", "\"version\":1");
  expect_read_partial_throws(text, "unsupported format version");
}

TEST(ReadPartial, RejectsTruncatedFiles) {
  const std::string text = partial_text(small_spec());
  // Cut in the middle of the last group line: the torn line loses its CRC
  // suffix and must fail with a contextful diagnostic, not be silently
  // dropped or half-parsed.
  expect_read_partial_throws(text.substr(0, text.size() - 20), "missing line CRC");
  // Cut a whole group line (file ends cleanly but the range is incomplete).
  const std::size_t last_line_start = text.rfind('\n', text.size() - 2) + 1;
  expect_read_partial_throws(text.substr(0, last_line_start), "missing group lines");
}

TEST(ReadPartial, RejectsBitFlipsViaLineCrc) {
  // Flip one byte of a group line WITHOUT re-signing: the payload is still
  // valid JSON, so only the CRC can catch it. The error names file + line.
  std::string text = partial_text(small_spec());
  const std::string runs = "\"runs\":4";
  const std::size_t at = text.find(runs);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, runs.size(), "\"runs\":7");
  expect_read_partial_throws(text, "bad line CRC");
  expect_read_partial_throws(text, "test.jsonl:");
}

TEST(ReadPartial, RejectsTrailingGarbageAfterCrc) {
  // Bytes appended after a line's CRC suffix (a botched concatenation) break
  // the frame even when the JSON prefix still parses.
  std::string text = partial_text(small_spec());
  ASSERT_EQ(text.back(), '\n');
  text.insert(text.size() - 1, "garbage");
  expect_read_partial_throws(text, "line CRC");
}

TEST(ReadPartial, RejectsDuplicateHeaders) {
  const std::string text = partial_text(small_spec());
  const std::string header = text.substr(0, text.find('\n') + 1);
  // Two concatenated partials (a botched file copy): the second header must
  // be called out as such.
  expect_read_partial_throws(text + header, "duplicate header line");
  // A header straight after the first one, before any group line.
  const std::string body = text.substr(text.find('\n') + 1);
  expect_read_partial_throws(header + header + body, "duplicate header line");
}

TEST(ReadPartial, RejectsCorruptedAggregates) {
  // Tamper with a sample count (re-signed, so the CRC gate passes) so the
  // aggregate invariant itself breaks; the error names the group.
  const std::string text =
      tamper_and_resign(partial_text(small_spec()), "\"runs\":4", "\"runs\":5");
  expect_read_partial_throws(text, "sample counts disagree");
  expect_read_partial_throws(text, "corrupt aggregate for group");
}

TEST(DescribeSpecMismatch, NamesTheDifferingFields) {
  const util::Json want = util::Json::parse(
      "{\"seeds\":24,\"max_rounds\":64,\"margin\":8}");
  const util::Json found = util::Json::parse(
      "{\"seeds\":8,\"max_rounds\":64,\"extra\":true}");
  const std::string diff = sim::describe_spec_mismatch(want, found);
  EXPECT_NE(diff.find("seeds"), std::string::npos) << diff;
  EXPECT_NE(diff.find("margin"), std::string::npos) << diff;
  EXPECT_NE(diff.find("extra"), std::string::npos) << diff;
  EXPECT_EQ(diff.find("max_rounds"), std::string::npos) << diff;
  // Agreement -> empty.
  EXPECT_TRUE(sim::describe_spec_mismatch(want, want).empty());
}

TEST(CrcFrame, RoundTripsAndRejectsDamage) {
  const std::string payload = "{\"hello\":\"world\"}";
  const std::string framed = sim::crc_frame(payload);
  EXPECT_EQ(sim::crc_unframe(framed, "f", 1), payload);
  EXPECT_THROW(sim::crc_unframe(framed + "x", "f", 1), std::invalid_argument);
  EXPECT_THROW(sim::crc_unframe(payload, "f", 1), std::invalid_argument);
  std::string flipped = framed;
  flipped[2] ^= 1;
  EXPECT_THROW(sim::crc_unframe(flipped, "f", 1), std::invalid_argument);
}

// --- truncate_to_lines -------------------------------------------------------

struct TempFile {
  TempFile() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("synccount-io-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(TruncateToLines, KeepsExactlyTheRequestedPrefix) {
  TempFile f;
  {
    std::ofstream out(f.path, std::ios::binary);
    out << "one\ntwo\nthree\nfour (unterminated";
  }
  sim::truncate_to_lines(f.path, 2);
  std::ifstream in(f.path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "one\ntwo\n");
  // Asking for more complete lines than exist is an error, not silent loss.
  EXPECT_THROW(sim::truncate_to_lines(f.path, 3), std::invalid_argument);
}

}  // namespace
