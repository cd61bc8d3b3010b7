// Unit tests of the sweep-service building blocks, transport-free where
// possible: CRC framing, backoff schedules, the fault injector, the atomic
// file helpers (torn-write recovery and commit rollback via death tests),
// the lease table (deterministic clocks, no sleeping), the durable job
// queue (persistence across reload), the protocol codecs, and the daemon's
// request brain via Daemon::handle. The process-level chaos differential
// test lives in serve_chaos_test.cpp.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "counting/algorithm_spec.hpp"
#include "serve/daemon.hpp"
#include "serve/lease.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "sim/sink.hpp"
#include "util/backoff.hpp"
#include "util/crc32.hpp"
#include "util/fault_injector.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;
using std::chrono::milliseconds;

struct TempDir {
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("synccount-serve-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return (path / name).string(); }
  std::filesystem::path path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

sim::ExperimentSpec small_spec() {
  sim::ExperimentSpec spec;
  counting::AlgorithmSpec algo;
  algo.kind = counting::AlgorithmSpec::Kind::kTable;
  algo.table_name = "3states";
  spec.algorithm = algo;
  spec.adversaries = {"split", "silent", "random"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 3;
  spec.base_seed = 0xBEE;
  spec.max_rounds = 48;
  spec.margin = 8;
  return spec;
}

// --- CRC-32 --------------------------------------------------------------------

TEST(Crc32, KnownAnswers) {
  // The standard reflected CRC-32 check value.
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0x00000000u);
  EXPECT_EQ(util::crc32_hex("123456789"), "cbf43926");
  EXPECT_NE(util::crc32("a"), util::crc32("b"));
}

// --- Backoff -------------------------------------------------------------------

TEST(Backoff, GrowsExponentiallyWithinJitterBounds) {
  util::BackoffPolicy policy;
  policy.initial = milliseconds(100);
  policy.cap = milliseconds(450);
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  policy.max_attempts = 0;
  util::Backoff backoff(policy, /*seed=*/42);
  const long expected_base[] = {100, 200, 400, 450, 450};
  for (const long base : expected_base) {
    const auto d = backoff.next_delay().count();
    EXPECT_GE(d, base / 2) << "base " << base;
    EXPECT_LE(d, base + base / 2) << "base " << base;
  }
}

TEST(Backoff, HonoursTheAttemptBudgetAndIsSeedDeterministic) {
  util::BackoffPolicy policy;
  policy.max_attempts = 3;  // one try + two retries
  util::Backoff a(policy, 7);
  EXPECT_TRUE(a.should_retry());
  (void)a.next_delay();
  EXPECT_TRUE(a.should_retry());
  (void)a.next_delay();
  EXPECT_FALSE(a.should_retry());
  a.reset();
  EXPECT_TRUE(a.should_retry());

  util::Backoff b1(policy, 99), b2(policy, 99);
  EXPECT_EQ(b1.next_delay().count(), b2.next_delay().count());
}

TEST(Backoff, HighAttemptCountsDoNotOverflow) {
  // initial * multiplier^attempt overflows a double-to-integer cast long
  // before attempt 60; a forever-retrying worker (max_attempts = 0) with a
  // huge cap must keep getting sane positive delays, not UB or negatives.
  util::BackoffPolicy policy;
  policy.initial = milliseconds(1000);
  policy.cap = milliseconds::max();
  policy.multiplier = 10.0;
  policy.jitter = 0.5;
  policy.max_attempts = 0;
  util::Backoff backoff(policy, 5);
  long prev = 0;
  for (int attempt = 0; attempt < 80; ++attempt) {
    ASSERT_TRUE(backoff.should_retry());
    const long d = backoff.next_delay().count();
    ASSERT_GT(d, 0) << "attempt " << attempt;
    ASSERT_GE(d, prev / 4) << "attempt " << attempt;  // no wrap-around collapse
    prev = d;
  }
  // Far past any representable delay the schedule is pinned at the clamp,
  // and the attempt counter saturates instead of overflowing.
  EXPECT_GE(backoff.attempt(), 80);
  EXPECT_TRUE(backoff.should_retry());
}

// --- Fault injector --------------------------------------------------------------

TEST(FaultInjector, ParsesPlansAndFiresOnce) {
  util::FaultInjector fi;
  fi.configure("hb=drop@2,io=torn@1");
  EXPECT_FALSE(fi.should_drop("hb"));  // probe 1: not yet
  EXPECT_TRUE(fi.should_drop("hb"));   // probe 2: fires
  EXPECT_FALSE(fi.should_drop("hb"));  // fired once, never again
  EXPECT_FALSE(fi.should_drop("other"));

  const auto fault = fi.on_write("io", 100);
  EXPECT_TRUE(fault.torn);
  EXPECT_LT(fault.keep_bytes, 100u);  // a strict prefix
  EXPECT_FALSE(fi.on_write("io", 100).torn);

  fi.configure("");  // empty plan disables everything
  EXPECT_FALSE(fi.active());
  EXPECT_THROW(fi.configure("bad-spec-no-equals"), std::invalid_argument);
  EXPECT_THROW(fi.configure("site=explode@1"), std::invalid_argument);
}

TEST(FaultInjector, StallSleepsInsteadOfDying) {
  util::FaultInjector fi;
  fi.configure("slow=stall:30@1");
  // synccount-lint: allow(nondet) -- this test asserts real elapsed time: a
  // stall fault must actually sleep, which only a wall clock can observe.
  const auto t0 = std::chrono::steady_clock::now();
  fi.probe("slow");
  const auto elapsed =
      // synccount-lint: allow(nondet) -- second read of the same measurement.
      std::chrono::duration_cast<milliseconds>(std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 25);
}

// --- Atomic file helpers ----------------------------------------------------------

TEST(AtomicWrite, PublishesWholeFilesOnly) {
  TempDir dir;
  const std::string path = dir.file("data.txt");
  sim::atomic_write_file(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  sim::atomic_write_file(path, "second\n");
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // staging cleaned up
}

TEST(AtomicAppender, CommitsInPlaceAndResumes) {
  TempDir dir;
  const std::string path = dir.file("log.jsonl");
  const std::string link = dir.file("link.jsonl");
  {
    sim::AtomicAppender app(path);
    EXPECT_FALSE(std::filesystem::exists(path));  // nothing until commit
    app.commit();                                 // first commit creates it empty
    EXPECT_EQ(slurp(path), "");
    // A hard link shares the inode: it sees later appends, and would keep
    // the old bytes if a commit ever republished the file by rename.
    std::filesystem::create_hard_link(path, link);
    app.append("one\n");
    EXPECT_EQ(slurp(path), "");  // buffered, not visible
    app.commit();
    EXPECT_EQ(slurp(path), "one\n");
    app.commit();  // empty commit: no-op
    EXPECT_EQ(slurp(path), "one\n");
  }
  {
    sim::AtomicAppender app(path, /*resume=*/true);
    app.append("two\n");
    app.commit();
  }
  EXPECT_EQ(slurp(path), "one\ntwo\n");
  EXPECT_EQ(slurp(link), "one\ntwo\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

using AtomicDeathTest = ::testing::Test;

TEST(AtomicDeathTest, KillAfterCommitLeavesTheNewContent) {
  TempDir dir;
  const std::string path = dir.file("data.txt");
  EXPECT_EXIT(
      {
        util::FaultInjector::instance().configure("io.atomic_write=kill@1");
        sim::atomic_write_file(path, "durable\n");
      },
      ::testing::ExitedWithCode(137), "");
  // The kill probe fires AFTER rename+fsync: the write is durable.
  EXPECT_EQ(slurp(path), "durable\n");
}

// --- Lease table -----------------------------------------------------------------

TEST(LeaseTable, GrantRenewExpireRequeue) {
  serve::LeaseTable leases;
  const auto t0 = serve::LeaseTable::Clock::time_point{};  // fixed epoch: leases take instants explicitly
  const auto id = leases.grant("job", 2, 5, "w1", t0, milliseconds(100));
  EXPECT_TRUE(leases.held("job", 2, t0));
  EXPECT_TRUE(leases.held("job", 4, t0));
  EXPECT_FALSE(leases.held("job", 5, t0));  // end is exclusive
  EXPECT_FALSE(leases.held("other", 2, t0));
  EXPECT_EQ(leases.held_groups("job", t0), 3u);

  // Renewal pushes the deadline; past it the lease no longer holds groups.
  EXPECT_TRUE(leases.renew(id, t0 + milliseconds(80), milliseconds(100)));
  EXPECT_TRUE(leases.held("job", 2, t0 + milliseconds(150)));
  EXPECT_FALSE(leases.held("job", 2, t0 + milliseconds(500)));

  // Sweeping removes the expired lease exactly once and reports it.
  const auto expired = leases.sweep_expired(t0 + milliseconds(500));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, id);
  EXPECT_EQ(expired[0].group_begin, 2u);
  EXPECT_EQ(leases.size(), 0u);
  EXPECT_FALSE(leases.renew(id, t0, milliseconds(100)));  // gone for good
}

TEST(LeaseTable, SweepWithNothingExpiredLeavesLivingLeasesIntact) {
  // Regression: the sweep compaction once self-move-assigned surviving
  // leases, emptying their string members -- held() stopped matching and
  // every group became double-assignable after any request.
  serve::LeaseTable leases;
  const auto t0 = serve::LeaseTable::Clock::time_point{};  // fixed epoch: leases take instants explicitly
  const auto id = leases.grant("job", 0, 3, "w1", t0, milliseconds(1000));
  EXPECT_TRUE(leases.sweep_expired(t0 + milliseconds(10)).empty());
  ASSERT_EQ(leases.size(), 1u);
  const serve::Lease* lease = leases.find(id);
  ASSERT_NE(lease, nullptr);
  EXPECT_EQ(lease->job, "job");
  EXPECT_EQ(lease->worker, "w1");
  EXPECT_TRUE(leases.held("job", 0, t0 + milliseconds(10)));
}

TEST(LeaseTable, ReleaseAndIdUniqueness) {
  serve::LeaseTable leases;
  const auto t0 = serve::LeaseTable::Clock::time_point{};  // fixed epoch: leases take instants explicitly
  const auto a = leases.grant("j", 0, 1, "w", t0, milliseconds(50));
  const auto b = leases.grant("j", 1, 2, "w", t0, milliseconds(50));
  EXPECT_NE(a, b);
  leases.release(a);
  EXPECT_EQ(leases.find(a), nullptr);
  ASSERT_NE(leases.find(b), nullptr);
  EXPECT_EQ(leases.find(b)->group_begin, 1u);
}

// --- Protocol codecs ---------------------------------------------------------------

TEST(Protocol, LeaseGrantAndCompleteRoundTrip) {
  serve::LeaseGrant grant;
  grant.job = "night-sweep";
  grant.lease_id = 17;
  grant.group_begin = 3;
  grant.group_end = 6;
  grant.ttl_ms = 5000;
  grant.spec = util::Json::parse("{\"seeds\":4}");
  const serve::LeaseGrant back = serve::LeaseGrant::from_json(grant.to_json());
  EXPECT_EQ(back.job, grant.job);
  EXPECT_EQ(back.lease_id, grant.lease_id);
  EXPECT_EQ(back.group_begin, grant.group_begin);
  EXPECT_EQ(back.group_end, grant.group_end);
  EXPECT_EQ(back.spec.dump(), grant.spec.dump());

  serve::CompleteRequest complete;
  complete.lease_id = 17;
  complete.job = "night-sweep";
  complete.group = 4;
  complete.adversary = "split";
  complete.placement = "spread";
  complete.aggregate = util::Json::parse("{\"runs\":3}");
  const util::Json wire = complete.to_json();
  EXPECT_EQ(wire.at("op").as_string(), "complete");
  const serve::CompleteRequest c = serve::CompleteRequest::from_json(wire);
  EXPECT_EQ(c.group, 4u);
  EXPECT_EQ(c.aggregate.dump(), complete.aggregate.dump());
}

TEST(Protocol, CheckResponseThrowsTheCarriedError) {
  EXPECT_TRUE(serve::check_response(serve::ok_response()));
  try {
    serve::check_response(serve::error_response("queue on fire"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queue on fire"), std::string::npos);
  }
}

// --- Job queue -----------------------------------------------------------------------

TEST(JobQueue, ValidatesJobNames) {
  EXPECT_TRUE(serve::valid_job_name("nightly-3states_v2.1"));
  EXPECT_FALSE(serve::valid_job_name(""));
  EXPECT_FALSE(serve::valid_job_name(".hidden"));
  EXPECT_FALSE(serve::valid_job_name("a/b"));
  EXPECT_FALSE(serve::valid_job_name(std::string(65, 'x')));
}

TEST(JobQueue, SubmitIsIdempotentAndNamesSpecMismatches) {
  TempDir dir;
  serve::JobQueue queue(dir.file("state"));
  const util::Json spec = sim::experiment_spec_to_json(small_spec());
  const auto first = queue.submit("job", spec);
  EXPECT_FALSE(first.existed);
  EXPECT_EQ(first.groups, 6u);  // 3 adversaries x 2 placements
  const auto again = queue.submit("job", spec);
  EXPECT_TRUE(again.existed);

  sim::ExperimentSpec other = small_spec();
  other.seeds = 99;
  try {
    queue.submit("job", sim::experiment_spec_to_json(other));
    FAIL() << "expected mismatch rejection";
  } catch (const std::invalid_argument& e) {
    // The diagnostic must name the differing field, not just say "differs".
    EXPECT_NE(std::string(e.what()).find("seeds"), std::string::npos) << e.what();
  }
}

TEST(JobQueue, RejectsFileWritingSinks) {
  TempDir dir;
  serve::JobQueue queue(dir.file("state"));
  sim::ExperimentSpec spec = small_spec();
  spec.sinks.push_back(
      {sim::SinkConfig::Kind::kCheckpoint, dir.file("ck.jsonl"), "jsonl", false});
  EXPECT_THROW(queue.submit("job", sim::experiment_spec_to_json(spec)),
               std::invalid_argument);
}

TEST(JobQueue, AssignsContiguousRunsSkippingDoneAndHeld) {
  TempDir dir;
  serve::JobQueue queue(dir.file("state"));
  queue.submit("job", sim::experiment_spec_to_json(small_spec()));  // 6 groups
  const auto held_none = [](const std::string&, std::uint64_t) { return false; };

  serve::JobQueue::Assignment a;
  ASSERT_TRUE(queue.assign(4, held_none, a));
  EXPECT_EQ(a.group_begin, 0u);
  EXPECT_EQ(a.group_end, 4u);  // capped by max_groups

  // Group 1 held by a lease: the run before it is [0, 1).
  const auto held_1 = [](const std::string&, std::uint64_t g) { return g == 1; };
  ASSERT_TRUE(queue.assign(4, held_1, a));
  EXPECT_EQ(a.group_begin, 0u);
  EXPECT_EQ(a.group_end, 1u);
}

// Runs the engine on one global group and packages a CompleteRequest-shaped
// record for it.
void complete_group(serve::JobQueue& queue, const sim::ExperimentSpec& spec,
                    std::uint64_t group) {
  sim::ShardPlan plan;
  plan.shards = 1;
  plan.shard = 0;
  plan.group_begin = static_cast<std::size_t>(group);
  plan.group_end = static_cast<std::size_t>(group) + 1;
  const auto result = sim::Engine(1).run(spec, plan);
  const auto partial = sim::make_partial(spec, plan, result);
  std::vector<std::string> advs, pls;
  sim::grid_names(spec, advs, pls);
  ASSERT_TRUE(queue.record_done("job", group, advs[group / pls.size()],
                                pls[group % pls.size()],
                                sim::aggregate_to_json(partial.groups[0].aggregate)));
}

TEST(JobQueue, PersistsAcrossReloadAndAssemblesByteIdenticalResults) {
  TempDir dir;
  const sim::ExperimentSpec spec = small_spec();

  // Single-process reference: the whole grid, one partial file.
  const auto full_plan = sim::plan_shards(spec, 1, 0);
  const auto full = sim::Engine(1).run(spec, full_plan);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, full_plan, full));

  {
    serve::JobQueue queue(dir.file("state"));
    queue.submit("job", sim::experiment_spec_to_json(spec));
    complete_group(queue, spec, 0);
    complete_group(queue, spec, 3);  // out of order on purpose
    complete_group(queue, spec, 1);
    // Duplicate complete: first write wins, benign.
    sim::ShardPlan plan{1, 0, 0, 1};
    const auto partial =
        sim::make_partial(spec, plan, sim::Engine(1).run(spec, plan));
    std::vector<std::string> advs, pls;
    sim::grid_names(spec, advs, pls);
    EXPECT_FALSE(queue.record_done("job", 0, advs[0], pls[0],
                                   sim::aggregate_to_json(partial.groups[0].aggregate)));
  }  // daemon "dies" here

  // Restart: the three durable groups are still there.
  serve::JobQueue queue(dir.file("state"));
  auto status = queue.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].done, 3u);
  EXPECT_FALSE(status[0].complete);
  EXPECT_EQ(queue.pending_groups(), 3u);
  EXPECT_THROW(queue.results_text("job"), std::invalid_argument);  // incomplete

  for (const std::uint64_t g : {2u, 4u, 5u}) complete_group(queue, spec, g);
  EXPECT_TRUE(queue.job_complete("job"));
  EXPECT_EQ(queue.results_text("job"), reference.str());
}

TEST(JobQueue, SketchSpecsRoundTripWithBoundedWire) {
  // A sketch-mode spec travels through submit -> assemble carrying KLL
  // sketch state instead of sample vectors, and the assembled results must
  // still byte-compare to a single-process sketch run (the v4 wire format's
  // determinism contract end-to-end through the service).
  TempDir dir;
  sim::ExperimentSpec spec = small_spec();
  spec.stats = util::StatsMode::kSketch;

  const auto full_plan = sim::plan_shards(spec, 1, 0);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, full_plan, sim::Engine(1).run(spec, full_plan)));
  EXPECT_NE(reference.str().find("\"stats\":\"sketch\""), std::string::npos);

  serve::JobQueue queue(dir.file("state"));
  queue.submit("job", sim::experiment_spec_to_json(spec));
  for (const std::uint64_t g : {0u, 3u, 1u, 5u, 2u, 4u}) {
    complete_group(queue, spec, g);
  }
  EXPECT_TRUE(queue.job_complete("job"));
  EXPECT_EQ(queue.results_text("job"), reference.str());
}

TEST(JobQueue, RecordDoneRejectsGridDisagreements) {
  TempDir dir;
  serve::JobQueue queue(dir.file("state"));
  const sim::ExperimentSpec spec = small_spec();
  queue.submit("job", sim::experiment_spec_to_json(spec));
  const util::Json agg = util::Json::parse("{\"runs\":1}");
  EXPECT_THROW(queue.record_done("nope", 0, "split", "spread", agg),
               std::invalid_argument);  // unknown job
  EXPECT_THROW(queue.record_done("job", 99, "split", "spread", agg),
               std::invalid_argument);  // outside the grid
  EXPECT_THROW(queue.record_done("job", 0, "silent", "spread", agg),
               std::invalid_argument);  // wrong adversary for group 0
}

TEST(JobQueue, DoneFileGrowsInPlaceWithoutStagingFiles) {
  TempDir dir;
  const sim::ExperimentSpec spec = small_spec();
  serve::JobQueue queue(dir.file("state"));
  queue.submit("job", sim::experiment_spec_to_json(spec));
  const std::string done = dir.file("state/job-job.done.jsonl");
  const std::string link = dir.file("done.link");
  std::filesystem::create_hard_link(done, link);
  for (const std::uint64_t g : {2u, 0u, 5u}) {
    complete_group(queue, spec, g);
    for (const auto& entry : std::filesystem::directory_iterator(dir.file("state"))) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
  }
  // The link shares the done file's inode, so it holds every committed line
  // only if no commit republished the file.
  const std::string bytes = slurp(done);
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 3);
  EXPECT_EQ(slurp(link), bytes);
}

TEST(JobQueue, TerminatedCorruptDoneLineStillThrows) {
  TempDir dir;
  const sim::ExperimentSpec spec = small_spec();
  {
    serve::JobQueue queue(dir.file("state"));
    queue.submit("job", sim::experiment_spec_to_json(spec));
    complete_group(queue, spec, 0);
  }
  // A whole line that fails its CRC is damage, not an interrupted commit:
  // the replay must refuse it, naming file and line.
  {
    std::ofstream out(dir.file("state/job-job.done.jsonl"), std::ios::binary | std::ios::app);
    out << "{\"group\":1}#00000000\n";
  }
  try {
    serve::JobQueue queue(dir.file("state"));
    FAIL() << "a corrupt terminated done line was replayed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job-job.done.jsonl:2"), std::string::npos)
        << e.what();
  }
}

// --- Crash windows of appended files --------------------------------------------------

// A commit killed mid-write leaves its torn bytes in the file itself, past
// the committed length. The committed prefix must stay intact, and both
// recovering readers drop the tail: the queue's done-file replay and the
// checkpoint scan.
TEST(AtomicDeathTest, TornCommitKeepsTheCommittedPrefixAndReadersDropTheTail) {
  TempDir dir;
  const sim::ExperimentSpec spec = small_spec();
  const std::string done = dir.file("state/job-job.done.jsonl");
  {
    serve::JobQueue queue(dir.file("state"));
    queue.submit("job", sim::experiment_spec_to_json(spec));
    complete_group(queue, spec, 0);
  }
  const std::string committed = slurp(done);
  EXPECT_EXIT(
      {
        util::FaultInjector::instance().configure("serve.job.done=torn@1");
        serve::JobQueue queue(dir.file("state"));
        complete_group(queue, spec, 1);
      },
      ::testing::ExitedWithCode(137), "");
  const std::string torn = slurp(done);
  ASSERT_GT(torn.size(), committed.size());  // the torn bytes did land
  EXPECT_EQ(torn.substr(0, committed.size()), committed);
  EXPECT_NE(torn.back(), '\n');
  {
    serve::JobQueue queue(dir.file("state"));
    EXPECT_EQ(slurp(done), committed);  // the replay cut the tail off
    EXPECT_EQ(queue.status()[0].done, 1u);
    complete_group(queue, spec, 1);
  }
  EXPECT_EQ(serve::JobQueue(dir.file("state")).status()[0].done, 2u);

  // Checkpoint commits 1 and 2 made the header and group 0 durable; the
  // third tears group 1's line.
  const auto plan = sim::plan_shards(spec, 1, 0);
  const std::string ck = dir.file("ck.jsonl");
  EXPECT_EXIT(
      {
        util::FaultInjector::instance().configure("sink.checkpoint=torn@3");
        sim::CheckpointSink sink(ck);
        sim::Engine(1).run(spec, plan, {&sink});
      },
      ::testing::ExitedWithCode(137), "");
  const std::string bytes = slurp(ck);
  const auto state = sim::read_checkpoint(ck, spec, plan);
  EXPECT_TRUE(state.header_present);
  EXPECT_EQ(state.next_group, 1u);
  ASSERT_GT(bytes.size(), state.valid_bytes);
  const std::string valid = bytes.substr(0, state.valid_bytes);
  EXPECT_EQ(std::count(valid.begin(), valid.end(), '\n'), 2);
  EXPECT_NE(bytes.back(), '\n');
}

// A commit whose write fails part-way (a real short write past
// RLIMIT_FSIZE, with SIGXFSZ ignored) is cut back to the committed length
// before it throws, so a caller that survives the error -- the daemon keeps
// serving -- never commits after a torn line.
TEST(AtomicDeathTest, FailedCommitRollsBackToTheCommittedLength) {
  TempDir dir;
  const std::string path = dir.file("log.jsonl");
  {
    sim::AtomicAppender app(path);
    app.append("committed\n");
    app.commit();
  }
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        ::getrlimit(RLIMIT_FSIZE, &limit);
        const rlimit original = limit;
        limit.rlim_cur = 14;  // room for 4 bytes of the next commit
        ::setrlimit(RLIMIT_FSIZE, &limit);
        sim::AtomicAppender app(path, /*resume=*/true);
        app.append("does not fit\n");
        bool threw = false;
        try {
          app.commit();
        } catch (const std::invalid_argument&) {
          threw = true;
        }
        ::setrlimit(RLIMIT_FSIZE, &original);
        app.append("fits\n");
        app.commit();
        std::_Exit(threw ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EQ(slurp(path), "committed\nfits\n");
}

// --- Daemon (transport-free, via handle()) -------------------------------------------

struct DaemonFixture {
  TempDir dir;
  serve::DaemonConfig cfg;
  std::ostringstream log;

  serve::Daemon make(std::uint64_t lease_ttl_ms = 60000, std::uint64_t lease_groups = 2) {
    cfg.socket_path = dir.file("sock");
    cfg.state_dir = dir.file("state");
    cfg.lease_ttl_ms = lease_ttl_ms;
    cfg.lease_groups = lease_groups;
    cfg.log = &log;
    return serve::Daemon(cfg);
  }
};

util::Json submit_request(const std::string& job, const sim::ExperimentSpec& spec) {
  util::Json req = serve::make_request("submit");
  req.set("job", util::Json::string(job));
  req.set("spec", sim::experiment_spec_to_json(spec));
  return req;
}

util::Json lease_request(const std::string& worker) {
  util::Json req = serve::make_request("lease");
  req.set("worker", util::Json::string(worker));
  return req;
}

TEST(Daemon, FullProtocolFlowProducesTheReferencePartial) {
  DaemonFixture fx;
  serve::Daemon daemon = fx.make();
  const sim::ExperimentSpec spec = small_spec();

  const auto full_plan = sim::plan_shards(spec, 1, 0);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, full_plan, sim::Engine(1).run(spec, full_plan)));

  util::Json resp = daemon.handle(submit_request("job", spec));
  ASSERT_TRUE(serve::check_response(resp));
  EXPECT_EQ(serve::msg_u64(resp, "groups"), 6u);

  // Drain the queue through leases, computing every group for real.
  std::vector<std::string> advs, pls;
  sim::grid_names(spec, advs, pls);
  for (;;) {
    resp = daemon.handle(lease_request("w1"));
    ASSERT_TRUE(serve::check_response(resp));
    if (serve::msg_bool(resp, "idle", false)) {
      EXPECT_FALSE(serve::msg_bool(resp, "pending", true));
      break;
    }
    const serve::LeaseGrant grant = serve::LeaseGrant::from_json(resp);
    EXPECT_LE(grant.group_end - grant.group_begin, 2u);  // cfg.lease_groups
    const sim::ExperimentSpec job_spec = sim::experiment_spec_from_json(grant.spec);
    for (std::uint64_t g = grant.group_begin; g < grant.group_end; ++g) {
      sim::ShardPlan plan;
      plan.shards = 1;
      plan.shard = 0;
      plan.group_begin = static_cast<std::size_t>(g);
      plan.group_end = static_cast<std::size_t>(g) + 1;
      const auto partial =
          sim::make_partial(job_spec, plan, sim::Engine(1).run(job_spec, plan));
      serve::CompleteRequest complete;
      complete.lease_id = grant.lease_id;
      complete.job = grant.job;
      complete.group = g;
      complete.adversary = advs[g / pls.size()];
      complete.placement = pls[g % pls.size()];
      complete.aggregate = sim::aggregate_to_json(partial.groups[0].aggregate);
      const util::Json ack = daemon.handle(complete.to_json());
      ASSERT_TRUE(serve::check_response(ack));
      EXPECT_TRUE(serve::msg_bool(ack, "accepted", false));
    }
  }

  util::Json results_req = serve::make_request("results");
  results_req.set("job", util::Json::string("job"));
  resp = daemon.handle(results_req);
  ASSERT_TRUE(serve::check_response(resp));
  EXPECT_EQ(serve::msg_string(resp, "partial"), reference.str());
}

TEST(Daemon, ErrorsBecomeOkFalseResponsesNotThrows) {
  DaemonFixture fx;
  serve::Daemon daemon = fx.make();
  const util::Json resp = daemon.handle(serve::make_request("frobnicate"));
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_NE(resp.at("error").as_string().find("unknown op"), std::string::npos);
  // Malformed request shapes too.
  EXPECT_FALSE(daemon.handle(util::Json::parse("[1,2,3]")).at("ok").as_bool());
  EXPECT_FALSE(daemon.handle(serve::make_request("lease")).at("ok").as_bool());
}

TEST(Daemon, DrainStopsLeasingAndShutdownStops) {
  DaemonFixture fx;
  serve::Daemon daemon = fx.make();
  serve::check_response(daemon.handle(submit_request("job", small_spec())));
  serve::check_response(daemon.handle(serve::make_request("drain")));
  const util::Json resp = daemon.handle(lease_request("w1"));
  EXPECT_TRUE(serve::msg_bool(resp, "idle", false));
  EXPECT_TRUE(serve::msg_bool(resp, "draining", false));
  EXPECT_TRUE(serve::msg_bool(resp, "pending", false));  // work exists, just gated
  serve::check_response(daemon.handle(serve::make_request("shutdown")));
  EXPECT_TRUE(daemon.stopped());
}

TEST(Daemon, LeasedGroupsAreNotDoubleAssigned) {
  DaemonFixture fx;
  serve::Daemon daemon = fx.make(/*lease_ttl_ms=*/60000, /*lease_groups=*/3);
  serve::check_response(daemon.handle(submit_request("job", small_spec())));
  const auto g1 = serve::LeaseGrant::from_json(daemon.handle(lease_request("w1")));
  const auto g2 = serve::LeaseGrant::from_json(daemon.handle(lease_request("w2")));
  EXPECT_EQ(g1.group_begin, 0u);
  EXPECT_EQ(g1.group_end, 3u);
  EXPECT_EQ(g2.group_begin, 3u);  // disjoint from w1's range
  EXPECT_EQ(g2.group_end, 6u);
  // Grid exhausted while both leases live: idle, but pending.
  const util::Json resp = daemon.handle(lease_request("w3"));
  EXPECT_TRUE(serve::msg_bool(resp, "idle", false));
  EXPECT_TRUE(serve::msg_bool(resp, "pending", false));
}

}  // namespace
