// End-to-end unit coverage of the `aapx serve` server and client: typed
// requests over a real socket, bit-identical results against cold local
// computation, shared-store warmth across clients, deadline enforcement,
// graceful drain, and the BoundedQueue admission primitive. (The
// fault-injection side — drops, malformed frames, storms, SIGKILL — lives
// in the chaos harness; see tests/service/chaos.cpp.)
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/characterizer.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "service/bounded_queue.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace aapx::service {
namespace {

CharacterizeRequest small_request(int width = 6) {
  CharacterizeRequest req;
  req.spec.kind = ComponentKind::adder;
  req.spec.width = width;
  req.spec.adder_arch = AdderArch::ripple;
  req.scenarios = {{StressMode::worst, 10.0}};
  req.min_precision = width - 2;
  return req;
}

ComponentCharacterization cold_surface(const CharacterizeRequest& req) {
  Context::Options opt;
  opt.threads = 1;
  const Context ctx(opt);
  // The characterizer borrows the library by reference — it must outlive
  // the sweep, so no temporary here.
  const CellLibrary lib = make_nangate45_like();
  CharacterizerOptions copt;
  copt.min_precision = req.min_precision;
  copt.precision_step = req.precision_step;
  copt.sta = req.sta;
  const ComponentCharacterizer ch(ctx, lib, AgingModel{}, copt);
  return ch.characterize(req.spec, req.scenarios);
}

void expect_same_surface(const ComponentCharacterization& got,
                         const ComponentCharacterization& want) {
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(got.points[i].precision, want.points[i].precision);
    EXPECT_EQ(got.points[i].gates, want.points[i].gates);
    EXPECT_EQ(got.points[i].fresh_delay, want.points[i].fresh_delay);
    EXPECT_EQ(got.points[i].aged_delay, want.points[i].aged_delay);
  }
}

TEST(BoundedQueue, PushPopAndBackpressure) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3)) << "full queue must shed, not grow";
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_TRUE(queue.try_push(4));
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_EQ(queue.pop().value(), 4);
}

TEST(BoundedQueue, CloseDrainsBacklogThenSignalsShutdown) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3)) << "closed queue must refuse new work";
  // The backlog survives close — that is what makes stop() a drain.
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, PopBlocksUntilPushOrClose) {
  BoundedQueue<int> queue(4);
  std::optional<int> got;
  std::thread consumer([&] { got = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(queue.try_push(42));
  consumer.join();
  EXPECT_EQ(got.value(), 42);
  std::thread blocked([&] { got = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  blocked.join();
  EXPECT_FALSE(got.has_value());
}

TEST(ServeEndToEnd, PingCharacterizeAndQueriesOverTcp) {
  Context root;
  ServerOptions opts;
  opts.listen = "tcp:0";
  Server server(root, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  ServiceClient client(server.endpoint());
  EXPECT_TRUE(client.ping(&err)) << err;

  const CharacterizeRequest req = small_request();
  const auto surface = client.characterize(req, &err);
  ASSERT_TRUE(surface.has_value()) << err;
  expect_same_surface(surface->surface, cold_surface(req));

  // Second identical call: answered from the shared store (one miss ever).
  const auto again = client.characterize(req, &err);
  ASSERT_TRUE(again.has_value()) << err;
  expect_same_surface(again->surface, surface->surface);
  EXPECT_EQ(root.store().stats().surface_misses, 1u);
  EXPECT_EQ(root.store().stats().surface_hits, 1u);

  // Aged STA delay matches a direct query of the same (shared) store.
  AgedDelayRequest areq;
  areq.spec = req.spec;
  areq.mode = StressMode::worst;
  areq.years = 10.0;
  const auto delay = client.aged_delay(areq, &err);
  ASSERT_TRUE(delay.has_value()) << err;
  // A named library: the store may cache an aged view that borrows it.
  const CellLibrary lib = make_nangate45_like();
  const double local = root.store().aged_sta_delay(
      lib, areq.spec, AgingModel{}, areq.mode, areq.years, areq.sta);
  EXPECT_EQ(*delay, local);

  // The library query sees the surface the characterize call deposited.
  const auto all = client.library_query({-1, 0}, &err);
  ASSERT_TRUE(all.has_value()) << err;
  ASSERT_EQ(all->size(), 1u);
  expect_same_surface((*all)[0].surface, surface->surface);
  // Filters: matching kind/width keeps it, a different width drops it.
  const auto none = client.library_query({-1, req.spec.width + 1}, &err);
  ASSERT_TRUE(none.has_value()) << err;
  EXPECT_TRUE(none->empty());

  server.stop();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, 5u);  // 2 characterize + 1 delay + 2 queries
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServeEndToEnd, UnixSocketEndpoint) {
  const std::string sock =
      (std::filesystem::temp_directory_path() / "aapx_serve_test.sock")
          .string();
  Context root;
  ServerOptions opts;
  opts.listen = "unix:" + sock;
  Server server(root, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  EXPECT_EQ(server.endpoint(), "unix:" + sock);
  ServiceClient client(server.endpoint());
  EXPECT_TRUE(client.ping(&err)) << err;
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(sock))
      << "graceful stop must unlink the unix socket";
}

TEST(ServeEndToEnd, StopWakesTheAcceptorAtOnce) {
  const std::string sock =
      (std::filesystem::temp_directory_path() / "aapx_serve_cycle_test.sock")
          .string();
  const auto begin = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < 20; ++cycle) {
    Context root;
    ServerOptions opts;
    opts.listen = "unix:" + sock;
    Server server(root, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    server.stop();
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  // An acceptor left to its poll timeout would hold each stop for up to
  // 0.2 s.
  EXPECT_LT(elapsed.count(), 1.0) << "20 start/stop cycles";
  EXPECT_FALSE(std::filesystem::exists(sock));
}

TEST(ServeEndToEnd, InvalidEndpointIsACleanStartFailure) {
  Context root;
  ServerOptions opts;
  opts.listen = "carrier-pigeon:9";
  Server server(root, opts);
  std::string err;
  EXPECT_FALSE(server.start(&err));
  EXPECT_FALSE(err.empty());
}

TEST(ServeEndToEnd, MalformedPayloadGetsTypedErrorResponse) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  CharacterizeRequest bad = small_request();
  bad.spec.width = 99;
  ServiceClient client(server.endpoint());
  const CallResult result =
      client.call(MsgType::characterize, encode_request(bad));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.cancelled);
  EXPECT_NE(result.error.find("width"), std::string::npos) << result.error;
  EXPECT_EQ(client.retries(), 0u) << "typed errors are terminal, not retried";
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(ServeEndToEnd, DisconnectedClientsAreReaped) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  // Churn several short-lived raw connections, then hold one live client.
  for (int i = 0; i < 5; ++i) {
    const int fd = connect_endpoint(server.endpoint(), &err);
    ASSERT_GE(fd, 0) << err;
    close_fd(fd);
  }
  ServiceClient client(server.endpoint());
  ASSERT_TRUE(client.ping(&err)) << err;
  // The acceptor reaps dead connections on its next pass: the daemon must
  // not retain one fd + one thread per connection ever accepted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().live_connections > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.connections, 6u);
  EXPECT_EQ(stats.live_connections, 1u)
      << "dead connections not reaped while the server keeps running";
  // The surviving client still works after its neighbors were reaped.
  EXPECT_TRUE(client.ping(&err)) << err;
  server.stop();
}

TEST(SocketPrimitives, SendAllTimesOutOnNonDrainingPeer) {
  // A writer with a bounded send must give up once the peer's socket
  // buffer stays full — this is what keeps a stalled client from wedging
  // a worker or reader thread forever.
  std::string err;
  std::string endpoint;
  const int listen_fd = listen_endpoint("tcp:0", &endpoint, &err);
  ASSERT_GE(listen_fd, 0) << err;
  const int client_fd = connect_endpoint(endpoint, &err);
  ASSERT_GE(client_fd, 0) << err;
  ASSERT_EQ(wait_readable(listen_fd, 5000), 1);
  const int server_fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server_fd, 0);
  // Nobody reads client_fd; 64 MiB cannot fit in loopback socket buffers.
  const std::string big(64u << 20, 'x');
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(send_all(server_fd, big, 200));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "bounded send blocked far past its timeout";
  close_fd(server_fd);
  close_fd(client_fd);
  close_fd(listen_fd);
}

TEST(ServeEndToEnd, ClientBoundsWaitOnWedgedServer) {
  // A listener that accepts but never answers: the client's response
  // timeout must turn the hang into a bounded, retryable failure.
  std::string err;
  std::string endpoint;
  const int listen_fd = listen_endpoint("tcp:0", &endpoint, &err);
  ASSERT_GE(listen_fd, 0) << err;
  ClientOptions copt;
  copt.max_attempts = 2;
  copt.response_timeout_ms = 150;
  copt.base_backoff_ms = 1;
  ServiceClient client(endpoint, copt);
  const auto t0 = std::chrono::steady_clock::now();
  const CallResult result = client.call(MsgType::ping, {});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no response within"), std::string::npos)
      << result.error;
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "client hung on a wedged server despite response_timeout_ms";
  close_fd(listen_fd);
}

TEST(ServeEndToEnd, ServeForeverHonorsRequestStop) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const std::string endpoint = server.endpoint();
  // request_stop() is the async-signal-safe half the SIGTERM handler calls;
  // serve_forever() must observe it, run the full drain, and return.
  std::thread runner([&] { server.serve_forever(); });
  server.request_stop();
  runner.join();
  // After the drain the listener is gone: a fresh connect must fail fast.
  EXPECT_LT(connect_endpoint(endpoint, &err), 0);
}

TEST(ServeEndToEnd, SnapshotOnGracefulStop) {
  const std::string store =
      (std::filesystem::temp_directory_path() / "aapx_serve_snap.aapx")
          .string();
  std::filesystem::remove(store);
  {
    Context root;
    ServerOptions opts;
    opts.store_path = store;
    Server server(root, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ServiceClient client(server.endpoint());
    ASSERT_TRUE(client.characterize(small_request(), &err).has_value())
        << err;
    server.stop();
    EXPECT_GE(server.stats().snapshots, 1u);
  }
  // The snapshot reloads into a fresh root: the warm surface answers the
  // same request as a persist hit (no surface miss).
  Context::Options ropt;
  ropt.store_path = store;
  Context root(ropt);
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ServiceClient client(server.endpoint());
  const auto surface = client.characterize(small_request(), &err);
  ASSERT_TRUE(surface.has_value()) << err;
  EXPECT_EQ(root.store().stats().surface_misses, 0u);
  expect_same_surface(surface->surface, cold_surface(small_request()));
  server.stop();
  std::filesystem::remove(store);
}

}  // namespace
}  // namespace aapx::service
