// The daemon core (src/serve): socket round trips against a real
// in-process Server, protocol error handling, admission control, stats,
// and graceful drain. pimd itself is this Server plus flag parsing; the
// end-to-end binary is exercised by scripts/check_serve.sh.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/wire.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "exec/engine.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "sta/calibrated.hpp"
#include "util/error.hpp"

namespace pim::serve {
namespace {

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to 127.0.0.1:" << port << ": " << std::strerror(errno);
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to " << path << ": " << std::strerror(errno);
  return fd;
}

void send_line(int fd, std::string line) {
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

// A buffered line reader over one fd; "" means EOF before a newline.
struct LineReader {
  int fd;
  std::string buffer;

  std::string next() {
    size_t pos;
    char chunk[65536];
    while ((pos = buffer.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer.substr(0, pos);
    buffer.erase(0, pos + 1);
    return line;
  }
};

// Spin until the server's own stats report satisfies `done` (stats_json
// is safe from any thread). The predicates below wait on accepted /
// queue_depth transitions, so the assertions that follow are not timing
// guesses.
template <typename Pred>
void wait_for_stats(Server& server, Pred done) {
  for (int i = 0; i < 50000; ++i) {
    const obs::JsonValue v = obs::parse_json(server.stats_json());
    if (done(v)) return;
    ::usleep(100);
  }
  FAIL() << "stats never reached the expected state: " << server.stats_json();
}

double stat(const obs::JsonValue& v, const char* name) {
  const obs::JsonValue* m = v.find(name);
  return m == nullptr ? -1.0 : m->number;
}

std::string big_techfile_batch(int items) {
  std::string line = "{\"op\":\"batch\",\"id\":100,\"items\":[";
  for (int i = 0; i < items; ++i) {
    if (i > 0) line += ',';
    line += "{\"op\":\"techfile\",\"tech\":\"65nm\"}";
  }
  line += "]}";
  return line;
}

TEST(Serve, UnixSocketRoundTripMatchesInProcessExecution) {
  const std::string path = "/tmp/pim_test_serve_" + std::to_string(::getpid()) + ".sock";
  ServerOptions options;
  options.socket_path = path;
  options.workers = 2;
  Server server(options);
  server.start();

  const std::string line = "{\"op\":\"techfile\",\"id\":5,\"tech\":\"65nm\"}";
  const int fd = connect_unix(path);
  LineReader reader{fd, {}};
  send_line(fd, line);
  const std::string from_daemon = reader.next();
  EXPECT_EQ(from_daemon, api::wire::execute_line(line))
      << "daemon response must be byte-identical to a direct in-process call";
  EXPECT_NE(from_daemon.find("\"id\":5"), std::string::npos);
  EXPECT_NE(from_daemon.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, TcpEphemeralPortServesAndReportsItself) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.workers = 1;
  Server server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  send_line(fd, "{\"op\":\"techfile\",\"id\":1,\"tech\":\"45nm\"}");
  const std::string response = reader.next();
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, MalformedLineGetsTypedErrorWithoutKillingTheConnection) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  send_line(fd, "this is } not json");
  const std::string error_response = reader.next();
  {
    const obs::JsonValue v = obs::parse_json(error_response);
    EXPECT_FALSE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("error")->find("code")->text, "bad_input");
    EXPECT_EQ(v.find("error")->find("exit_code")->number, 2.0);
  }
  // The same connection keeps serving afterwards.
  send_line(fd, "{\"op\":\"techfile\",\"id\":2,\"tech\":\"65nm\"}");
  const std::string ok_response = reader.next();
  EXPECT_NE(ok_response.find("\"id\":2"), std::string::npos);
  EXPECT_NE(ok_response.find("\"ok\":true"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Serve, UnknownTechStaysTypedAndTheConnectionSurvives) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  send_line(fd, "{\"op\":\"techfile\",\"id\":3,\"tech\":\"no-such-tech\"}");
  const std::string response = reader.next();
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 3.0);
  EXPECT_FALSE(v.find("ok")->boolean);
  ::close(fd);
  server.stop();
}

TEST(Serve, FullQueueRejectsWithOverloaded) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  options.queue_limit = 1;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  // Occupy the single worker with a deterministic multi-second batch,
  // wait until it is picked up (queue drains), then fill the queue and
  // overflow it. The waits make the rejection deterministic, not timed.
  send_line(fd, big_techfile_batch(5000));
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0 && stat(v, "queue_depth") == 0.0;
  });
  send_line(fd, "{\"op\":\"techfile\",\"id\":201,\"tech\":\"65nm\"}");
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 2.0;
  });
  send_line(fd, "{\"op\":\"techfile\",\"id\":202,\"tech\":\"65nm\"}");

  // Responses stay in request order: batch, queued single, rejection.
  const std::string batch_response = reader.next();
  EXPECT_NE(batch_response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(batch_response.find("\"failed\":0"), std::string::npos);
  const std::string queued_response = reader.next();
  EXPECT_NE(queued_response.find("\"id\":201"), std::string::npos);
  EXPECT_NE(queued_response.find("\"ok\":true"), std::string::npos);
  const std::string rejection = reader.next();
  const obs::JsonValue v = obs::parse_json(rejection);
  EXPECT_EQ(v.find("id")->number, 202.0);
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->text, "overloaded");

  const obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "rejected"), 1.0);
  ::close(fd);
  server.stop();
}

TEST(Serve, StatsAnswersInlineEvenWhileTheWorkerIsBusy) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  Server server(options);
  server.start();

  const int busy_fd = connect_tcp(server.tcp_port());
  LineReader busy_reader{busy_fd, {}};
  send_line(busy_fd, big_techfile_batch(5000));
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0;
  });

  // A second connection gets stats immediately — the reader answers it
  // without going through the (occupied) worker queue.
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  send_line(fd, "{\"op\":\"stats\",\"id\":9}");
  const std::string response = reader.next();
  const obs::JsonValue v = obs::parse_json(response);
  EXPECT_EQ(v.find("id")->number, 9.0);
  EXPECT_TRUE(v.find("ok")->boolean);
  const obs::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("schema")->text, "pim.serve.v1");
  EXPECT_GE(stat(*result, "accepted"), 1.0);
  ::close(fd);

  EXPECT_NE(busy_reader.next().find("\"ok\":true"), std::string::npos);
  ::close(busy_fd);
  server.stop();
}

TEST(Serve, DrainFlushesInFlightResponsesBeforeClosing) {
  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  Server server(options);
  server.start();

  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  send_line(fd, big_techfile_batch(5000));
  // Only stop once the request is provably accepted; drain must then
  // finish it and flush the response before the connection drops. Stop
  // runs on another thread while this one keeps reading — the multi-MB
  // batch response cannot fit in the socket buffers, so a client that
  // stopped reading would wedge the flush (and any real client of a
  // draining daemon is mid-read anyway).
  wait_for_stats(server, [](const obs::JsonValue& v) {
    return stat(v, "accepted") == 1.0;
  });
  std::thread stopper([&server] { server.stop(); });

  const std::string response = reader.next();
  EXPECT_NE(response.find("\"id\":100"), std::string::npos);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(reader.next(), "");  // then EOF: the daemon closed cleanly
  stopper.join();
  ::close(fd);

  const obs::JsonValue stats = obs::parse_json(server.stats_json());
  EXPECT_EQ(stat(stats, "completed"), 1.0);
}

TEST(Serve, ListenersCloseAfterStop) {
  ServerOptions options;
  options.tcp_port = 0;
  Server server(options);
  server.start();
  const int port = server.tcp_port();
  const int fd = connect_tcp(port);
  server.stop();
  // The pre-drain connection's read side is shut; anything buffered gets
  // answered, new connects fail. Either the send fails or the socket is
  // closed — the key invariant is the server came down cleanly.
  const int fd2 = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_NE(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "listener should be closed after stop()";
  ::close(fd2);
  ::close(fd);
}

TEST(Serve, DeadlineRequestsRunConcurrentlyWithoutCrossTruncation) {
  // Budgets are thread-scoped, so pimd runs budgeted and budget-free
  // requests side by side: a 1 ms golden request stops typed on its own
  // worker while its neighbours finish untouched. The cache is off (each
  // request does its own work) and the fit is a reduced-deck file. One
  // exec thread, as perfbench runs pimd: a sign-off then runs its two
  // launches in turn, so a budgeted one always meets its expired budget
  // at the second launch's poll.
  cache::set_mode(cache::Mode::Off);
  exec::set_threads(1);
  const std::string coeffs = ::testing::TempDir() + "pim_serve_deadline_" +
                             std::to_string(::getpid()) + ".pimfit";
  {
    CharacterizationOptions copt;
    copt.drives = {2, 8, 32};
    copt.buffers = false;
    CompositionOptions comp;
    comp.drives = {8, 32};
    comp.segment_lengths = {0.5e-3, 1.5e-3};
    comp.input_slews = {50e-12, 300e-12};
    comp.chain_lengths = {1, 3};
    save_fit(calibrated_fit(TechNode::N45, "", copt, comp), coeffs);
  }
  const auto evaluate = [&](int id, const char* style, double length_mm, int deadline_ms) {
    std::string line = "{\"op\":\"evaluate\",\"id\":" + std::to_string(id) +
                       ",\"golden\":true";
    if (deadline_ms > 0) line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
    return line + ",\"link\":{\"tech\":\"45nm\",\"style\":\"" + style +
           "\",\"length_mm\":" + std::to_string(length_mm) + ",\"drive\":8" +
           ",\"coeffs_path\":\"" + coeffs + "\"}}";
  };
  std::vector<std::string> lines;
  std::vector<bool> budgeted;
  for (int i = 0; i < 8; ++i) {
    const bool rushed = i % 2 == 0;
    lines.push_back(rushed ? evaluate(i, "SS", 10.0, 1)
                           : evaluate(i, i % 4 == 1 ? "SH" : "DS", 1.0 + 0.5 * i, 0));
    budgeted.push_back(rushed);
  }

  ServerOptions options;
  options.tcp_port = 0;
  options.workers = 4;
  Server server(options);
  server.start();
  const int fd = connect_tcp(server.tcp_port());
  LineReader reader{fd, {}};
  for (const std::string& line : lines) send_line(fd, line);
  std::vector<std::string> responses;
  for (size_t i = 0; i < lines.size(); ++i) responses.push_back(reader.next());
  ::close(fd);
  server.stop();

  for (size_t i = 0; i < lines.size(); ++i) {
    if (budgeted[i]) {
      const obs::JsonValue v = obs::parse_json(responses[i]);
      EXPECT_FALSE(v.find("ok")->boolean) << responses[i];
      ASSERT_NE(v.find("error"), nullptr) << responses[i];
      EXPECT_EQ(v.find("error")->find("exit_code")->number, 5.0) << responses[i];
    } else {
      EXPECT_NE(responses[i].find("\"ok\":true"), std::string::npos) << responses[i];
      EXPECT_EQ(responses[i], api::wire::execute_line(lines[i]))
          << "request " << i << " must match a direct in-process call";
    }
  }
  exec::set_threads(0);
  cache::reset_mode();
  std::filesystem::remove(coeffs);
}

TEST(Serve, StartValidatesItsOptions) {
  {
    Server server(ServerOptions{});  // no listener at all
    EXPECT_THROW(server.start(), Error);
  }
  {
    ServerOptions options;
    options.tcp_port = 0;
    options.workers = 0;
    Server server(options);
    EXPECT_THROW(server.start(), Error);
  }
}

}  // namespace
}  // namespace pim::serve
