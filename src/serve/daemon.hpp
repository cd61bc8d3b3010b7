// The sweep-service daemon: one poll loop over a Unix listener, a durable
// JobQueue, and an in-memory LeaseTable.
//
// Failure model (what each crash costs):
//   worker SIGKILL'd      its lease expires (no heartbeats), the groups it
//                         never completed are requeued; completed groups
//                         are already durable in the queue
//   daemon SIGKILL'd      the socket vanishes (workers back off and retry),
//                         restart reloads the queue from the state dir;
//                         leases were in-memory, so every in-flight group
//                         is simply assignable again -- at worst the fleet
//                         recomputes groups whose completes were in flight,
//                         and the dedupe-by-(job, group) makes that benign
//   torn writes           job specs are write-to-temp + fsync + atomic
//                         rename; done files are fsynced appends whose
//                         torn final line the restart drops (queue.hpp)
//
// handle() is the whole protocol brain and takes/returns parsed JSON, so
// unit tests drive submit/lease/heartbeat/complete/status/results/drain
// without sockets or subprocesses; run() adds the transport.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/lease.hpp"
#include "serve/queue.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace synccount::serve {

struct DaemonConfig {
  std::string socket_path;
  std::string state_dir;
  std::uint64_t lease_ttl_ms = 5000;  // heartbeat deadline
  std::uint64_t lease_groups = 1;     // max groups per lease
  int io_timeout_ms = 2000;           // per-connection read/write deadline
  std::ostream* log = nullptr;        // null = std::cerr
};

class Daemon {
 public:
  // Loads (or creates) the state directory and binds the socket; throws on
  // either failing.
  explicit Daemon(DaemonConfig cfg);

  // Serves until a shutdown request; returns the process exit code (0).
  int run();

  // Handles one parsed request; never throws (errors become
  // {"ok":false,"error":...}). Exposed for transport-free unit tests.
  util::Json handle(const util::Json& request);

  const JobQueue& queue() const noexcept { return queue_; }
  bool draining() const noexcept { return draining_; }
  bool stopped() const noexcept { return stop_; }

 private:
  util::Json dispatch(const util::Json& request);
  util::Json handle_submit(const util::Json& req);
  util::Json handle_lease(const util::Json& req);
  util::Json handle_heartbeat(const util::Json& req);
  util::Json handle_complete(const util::Json& req);
  util::Json handle_status(const util::Json& req);
  util::Json handle_results(const util::Json& req);
  void sweep_expired();
  static LeaseTable::Clock::time_point clock_now();

  DaemonConfig cfg_;
  JobQueue queue_;
  util::UnixListener listener_;
  LeaseTable leases_;
  std::ostream* log_;
  bool draining_ = false;
  bool stop_ = false;
};

}  // namespace synccount::serve
