// synccount-lint: path(src/sim/sink_fixture.cpp)
// Fixture: rule D3 (raw-io) must fire -- the path() directive above scopes
// this file into the durable-IO paths, where raw writes skip the commit
// discipline and must route through atomic_write_file / AtomicAppender.
// Not compiled -- analyzed by tests/lint_test.py via synccount_lint.py.
#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <string>

void persist(const std::string& path, const std::string& payload) {
  std::ofstream out(path);  // line 13: raw ofstream
  out << payload;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // line 15: bare open
  ::write(fd, payload.data(), payload.size());                    // line 16: bare write
  ::close(fd);
}
