#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/batch_runner.hpp"
#include "sim/profile.hpp"
#include "util/json.hpp"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(synccount::sim::profile_now().time_since_epoch())
      .count();
}

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double usage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

}  // namespace

double cpu_s() { return usage_cpu_s(RUSAGE_SELF) + usage_cpu_s(RUSAGE_CHILDREN); }

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Tally::job(const std::vector<std::string>& job_failures) {
  ++attempted;
  if (job_failures.empty()) return;
  ++failed;
  failures.insert(failures.end(), job_failures.begin(), job_failures.end());
}

// --- Tracer ----------------------------------------------------------------------

int Tracer::begin(std::string name, int parent) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), t, t, parent, run_});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent may overlap (pool threads); merge their
  // intervals before subtracting so covered time is counted once.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[spans_[i].name] += (spans_[i].end - spans_[i].start) - covered;
  }
  return self;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    using synccount::util::Json;
    Json row = Json::object();
    row.set("id", Json::number(static_cast<std::uint64_t>(i)));
    row.set("name", Json::string(s.name));
    row.set("start_s", Json::number(s.start));
    row.set("end_s", Json::number(s.end));
    row.set("parent", Json::number(s.parent));
    row.set("run", Json::number(s.run));
    out << row.dump() << "\n";
  }
}

Scoped::Scoped(Tracer* tracer, std::string name, int parent) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), parent);
}

Scoped::~Scoped() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

// --- Child processes ---------------------------------------------------------------

bool Reaped::exited_ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

namespace {

struct ChildArgs {
  std::vector<char*> argv;  // null-terminated, pointing into the caller's strings
  int log_fd = -1;
  int err_fd = -1;
};

// Everything the child touches is prepared before fork: between fork and
// exec a multi-threaded parent's child may only make async-signal-safe
// calls.
ChildArgs prepare(const std::vector<std::string>& argv, const std::string& log_path,
                  int stderr_fd) {
  ChildArgs c;
  c.argv.reserve(argv.size() + 1);
  for (const std::string& a : argv) c.argv.push_back(const_cast<char*>(a.c_str()));
  c.argv.push_back(nullptr);
  c.log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (c.log_fd < 0) throw std::runtime_error("cannot open child log " + log_path);
  c.err_fd = stderr_fd >= 0 ? stderr_fd : c.log_fd;
  return c;
}

pid_t fork_exec(const ChildArgs& c) {
  const pid_t pid = fork();
  if (pid < 0) {
    ::close(c.log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::dup2(c.log_fd, STDOUT_FILENO);
    ::dup2(c.err_fd, STDERR_FILENO);
    ::execv(c.argv[0], c.argv.data());
    _exit(127);
  }
  ::close(c.log_fd);
  return pid;
}

pid_t posix_spawn_exec(const ChildArgs& c) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, c.log_fd, STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, c.err_fd, STDERR_FILENO);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, c.argv[0], &actions, nullptr, c.argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(c.log_fd);
  if (rc != 0) throw std::runtime_error(std::string("cannot start ") + c.argv[0]);
  return pid;
}

// Blocks until `pid` has exited or `timeout_s` has passed; false on timeout.
// A pidfd turns the wait into one poll() with a timeout; without pidfd
// support it falls back to short sleeps.
bool await_exit(pid_t pid, double timeout_s) {
  const auto fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd >= 0) {
    pollfd pfd{fd, POLLIN, 0};
    const auto ms = static_cast<int>(std::ceil(timeout_s * 1e3));
    int ready = -1;
    do {
      ready = ::poll(&pfd, 1, ms);
    } while (ready < 0 && errno == EINTR);
    ::close(fd);
    return ready > 0;
  }
  const double deadline = now_s() + timeout_s;
  siginfo_t info{};
  while (now_s() < deadline) {
    info.si_pid = 0;
    if (::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid == pid) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

Reaped reap(pid_t pid, double timeout_s, bool* timed_out) {
  const bool exited = await_exit(pid, timeout_s);
  if (!exited) ::kill(pid, SIGKILL);
  Reaped r;
  rusage ru{};
  pid_t got = -1;
  do {
    got = ::wait4(pid, &r.status, 0, &ru);
  } while (got < 0 && errno == EINTR);
  if (got != pid) throw std::runtime_error("wait4 failed for child " + std::to_string(pid));
  if (timed_out != nullptr) *timed_out = !exited;
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

}  // namespace

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall (11th and 12th after the state field).
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && (rest >> field); ++i) {
    if (i == 12 || i == 13) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

Children::~Children() {
  for (const pid_t pid : live_) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

pid_t Children::start(const std::vector<std::string>& argv, const std::string& log_path,
                      int stderr_fd) {
  const pid_t pid = fork_exec(prepare(argv, log_path, stderr_fd));
  live_.push_back(pid);
  return pid;
}

pid_t Children::launch(const std::vector<std::string>& argv, const std::string& log_path,
                       int stderr_fd) {
  const pid_t pid = posix_spawn_exec(prepare(argv, log_path, stderr_fd));
  live_.push_back(pid);
  return pid;
}

Reaped Children::wait(pid_t pid, double timeout_s, bool* timed_out) {
  const Reaped r = reap(pid, timeout_s, timed_out);
  live_.erase(std::remove(live_.begin(), live_.end(), pid), live_.end());
  return r;
}

void Children::kill(pid_t pid) const {
  if (std::find(live_.begin(), live_.end(), pid) != live_.end()) ::kill(pid, SIGKILL);
}

// --- Host facts --------------------------------------------------------------------

std::string host_facts() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  const char* isa = "baseline";
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) {
    isa = "avx512f";
  } else if (__builtin_cpu_supports("avx2")) {
    isa = "avx2";
  } else {
    isa = "sse2";
  }
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) + " cpu=\"" + model +
         "\" isa=" + isa +
         " batch_words=" + std::to_string(synccount::sim::default_batch_words());
}

}  // namespace e2e
