// Chaos harness for the `aapx serve` robustness contract (test-only).
//
// Each scenario abuses a live server the way real deployments get abused —
// dropped connections mid-frame, slow-loris byte trickles, malformed and
// hostile frames, request storms past the queue limit, SIGKILL mid-snapshot
// — and then checks the invariants that define "fault-tolerant" here:
//
//   1. every response that completes is bit-identical to the same request
//      computed cold, single-threaded, in-process;
//   2. the server keeps serving other clients while one misbehaves;
//   3. a killed server's store file always reopens — cold at worst, never
//      corrupt (atomic snapshot writes make torn files impossible);
//   4. overload and deadlines produce typed responses, never hangs.
//
//   chaos_harness <scenario|all> <aapx binary> <work dir> [--verbose]
//
// with scenario one of drop, slowloris, malformed, storm, kill, scrape.
//
// The `kill` scenario re-execs the aapx binary as `aapx serve` and the
// `scrape` scenario as `aapx client --op stats`. The scenarios run as the
// tier-1 chaos_* ctests; AAPX_CHAOS_ITERS=N repeats each one N times (the
// CI extended-fuzz job sets it to 20).
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/characterizer.hpp"
#include "engine/binio.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace aapx::service {
namespace {

struct ChaosOptions {
  std::string aapx;            ///< the aapx binary the scenarios re-exec
  std::string work_dir = ".";  ///< sockets, stores and logs (must exist)
  bool verbose = false;
};

/// An invariant violation; run_scenario turns it into exit code 1.
void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

void note(const ChaosOptions& opts, const std::string& msg) {
  if (opts.verbose) std::fprintf(stderr, "chaos: %s\n", msg.c_str());
}

/// The small, fast request every scenario reuses (4 precision points).
CharacterizeRequest small_request(int width = 6) {
  CharacterizeRequest req;
  req.spec.kind = ComponentKind::adder;
  req.spec.width = width;
  req.spec.adder_arch = AdderArch::ripple;
  req.scenarios = {{StressMode::worst, 10.0}};
  req.min_precision = std::max(1, width - 3);
  req.precision_step = 1;
  return req;
}

/// Invariant 1's reference: the same request computed cold, single-threaded,
/// in a private Context — no store warmth, no server, no concurrency.
ComponentCharacterization cold_surface(const CharacterizeRequest& req) {
  Context::Options copt;
  copt.threads = 1;
  const Context ctx(copt);
  const CellLibrary lib = make_nangate45_like();
  CharacterizerOptions ch_opt;
  ch_opt.min_precision = req.min_precision;
  ch_opt.precision_step = req.precision_step;
  ch_opt.sta = req.sta;
  const ComponentCharacterizer ch(ctx, lib, AgingModel{}, ch_opt);
  return ch.characterize(req.spec, req.scenarios);
}

/// Bit-identical comparison — doubles compared by value equality, which for
/// the determinism contract (same build, same inputs) means same bits.
void require_same_surface(const ComponentCharacterization& got,
                          const ComponentCharacterization& want,
                          const std::string& who) {
  require(got.base == want.base, who + ": base spec differs");
  require(got.points.size() == want.points.size(),
          who + ": point count differs");
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    const PrecisionPoint& g = got.points[i];
    const PrecisionPoint& w = want.points[i];
    require(g.precision == w.precision && g.gates == w.gates &&
                g.fresh_delay == w.fresh_delay && g.area == w.area &&
                g.aged_delay == w.aged_delay,
            who + ": point " + std::to_string(i) +
                " not bit-identical to cold computation");
  }
}

struct TestServer {
  explicit TestServer(ServerOptions opts) : root(), server(root, opts) {
    std::string err;
    if (!server.start(&err)) {
      throw std::runtime_error("chaos: server start failed: " + err);
    }
  }
  Context root;
  Server server;
};

ServerOptions base_options() {
  ServerOptions opts;
  opts.listen = "tcp:0";
  opts.workers = 2;
  opts.sweep_threads = 1;
  return opts;
}

// --- scenario: drop ---------------------------------------------------------
// A client disappears mid-frame; another vanishes right after sending a
// full request (its response hits a dead socket). Well-behaved clients on
// the same server must be unaffected and get bit-identical results.

int scenario_drop(const ChaosOptions& opts) {
  TestServer ts(base_options());
  const CharacterizeRequest req = small_request();

  // Half a frame, then hang up.
  {
    std::string err;
    const int fd = connect_endpoint(ts.server.endpoint(), &err);
    require(fd >= 0, "connect: " + err);
    const std::string bytes =
        encode_frame({MsgType::characterize, 7, 0, encode_request(req)});
    send_all(fd, std::string_view(bytes).substr(0, bytes.size() / 2));
    close_fd(fd);
  }
  // A full request, then hang up before the response arrives.
  {
    std::string err;
    const int fd = connect_endpoint(ts.server.endpoint(), &err);
    require(fd >= 0, "connect: " + err);
    send_all(fd,
             encode_frame({MsgType::characterize, 8, 0, encode_request(req)}));
    close_fd(fd);
  }
  note(opts, "two connections dropped; querying through a healthy client");

  ServiceClient client(ts.server.endpoint());
  std::string err;
  const auto surface = client.characterize(req, &err);
  require(surface.has_value(), "healthy client failed: " + err);
  require_same_surface(surface->surface, cold_surface(req), "drop");
  ts.server.stop();
  return 0;
}

// --- scenario: slowloris ----------------------------------------------------
// One connection trickles a request a byte at a time. The server must keep
// serving everyone else at full speed, and still answer the slow client
// once its frame finally completes.

int scenario_slowloris(const ChaosOptions& opts) {
  TestServer ts(base_options());
  const CharacterizeRequest req = small_request();

  std::string err;
  const int slow_fd = connect_endpoint(ts.server.endpoint(), &err);
  require(slow_fd >= 0, "connect: " + err);
  const std::string slow_bytes = encode_frame({MsgType::ping, 42, 0, {}});

  std::thread trickler([&] {
    for (const char c : slow_bytes) {
      send_all(slow_fd, std::string_view(&c, 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Meanwhile: normal requests complete normally.
  ServiceClient client(ts.server.endpoint());
  const ComponentCharacterization want = cold_surface(req);
  for (int i = 0; i < 3; ++i) {
    const auto surface = client.characterize(req, &err);
    require(surface.has_value(), "fast client starved: " + err);
    require_same_surface(surface->surface, want, "slowloris");
  }
  note(opts, "fast client served while slow frame still trickling");

  trickler.join();
  // The slow client's ping must eventually be answered.
  char buf[64];
  FrameReader reader;
  bool got_pong = false;
  while (!got_pong) {
    require(wait_readable(slow_fd, 5000) == 1, "slow client never answered");
    const long n = recv_some(slow_fd, buf, sizeof(buf));
    require(n > 0, "slow client connection died");
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto frame = reader.next()) {
      require(frame->type == MsgType::pong && frame->request_id == 42,
              "slow client got a wrong response");
      got_pong = true;
    }
  }
  close_fd(slow_fd);
  ts.server.stop();
  return 0;
}

// --- scenario: malformed ----------------------------------------------------
// Hostile frames: garbage magic, an absurd length prefix, a well-framed but
// invalid payload. Framing damage is connection-fatal (one error frame);
// payload damage gets a typed error and the connection lives. The server
// must survive all of it and keep serving.

int scenario_malformed(const ChaosOptions& opts) {
  TestServer ts(base_options());

  const auto expect_error_then_close = [&](const std::string& bytes,
                                           const std::string& what) {
    std::string err;
    const int fd = connect_endpoint(ts.server.endpoint(), &err);
    require(fd >= 0, "connect: " + err);
    send_all(fd, bytes);
    FrameReader reader;
    char buf[512];
    bool got_error = false;
    bool closed = false;
    while (!closed) {
      require(wait_readable(fd, 5000) == 1, what + ": server hung");
      const long n = recv_some(fd, buf, sizeof(buf));
      if (n <= 0) {
        closed = true;
        break;
      }
      reader.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = reader.next()) {
        require(frame->type == MsgType::error, what + ": expected error");
        got_error = true;
      }
    }
    require(got_error, what + ": no error frame before close");
    close_fd(fd);
  };

  expect_error_then_close(std::string(64, '\x5a'), "garbage magic");

  {
    // Valid magic and type, absurd payload length: must be rejected from
    // the 32 header bytes alone, never buffered or allocated.
    engine::BinWriter w;
    w.u32(kFrameMagic);
    w.u32(static_cast<std::uint32_t>(MsgType::characterize));
    w.u64(1);        // request_id
    w.u64(0);        // trace_id
    w.u64(1ull << 60);
    expect_error_then_close(w.take(), "hostile length prefix");
  }

  {
    // Well-framed, invalid payload (width 99): typed error, connection
    // survives and still answers a ping.
    CharacterizeRequest bad = small_request();
    bad.spec.width = 99;
    std::string payload = encode_request(bad);
    std::string err;
    const int fd = connect_endpoint(ts.server.endpoint(), &err);
    require(fd >= 0, "connect: " + err);
    send_all(fd, encode_frame({MsgType::characterize, 5, 0, payload}));
    send_all(fd, encode_frame({MsgType::ping, 6, 0, {}}));
    FrameReader reader;
    char buf[512];
    bool got_error = false;
    bool got_pong = false;
    while (!(got_error && got_pong)) {
      require(wait_readable(fd, 5000) == 1, "bad payload: server hung");
      const long n = recv_some(fd, buf, sizeof(buf));
      require(n > 0, "bad payload: connection closed early");
      reader.feed(buf, static_cast<std::size_t>(n));
      while (auto frame = reader.next()) {
        if (frame->request_id == 5) {
          require(frame->type == MsgType::error,
                  "bad payload: expected typed error");
          got_error = true;
        } else if (frame->request_id == 6) {
          require(frame->type == MsgType::pong, "bad payload: expected pong");
          got_pong = true;
        }
      }
    }
    close_fd(fd);
  }
  note(opts, "three hostile clients handled; verifying server still serves");

  ServiceClient client(ts.server.endpoint());
  const CharacterizeRequest req = small_request();
  std::string err;
  const auto surface = client.characterize(req, &err);
  require(surface.has_value(), "server damaged by malformed input: " + err);
  require_same_surface(surface->surface, cold_surface(req), "malformed");
  require(ts.server.stats().protocol_errors >= 3,
          "protocol errors not counted");
  ts.server.stop();
  return 0;
}

// --- scenario: storm --------------------------------------------------------
// Overload: a tiny queue, one worker, many concurrent clients. Distinct
// requests must shed with retry_later (and complete after client backoff);
// identical requests must dedup onto one computation. Every completed
// response must be bit-identical to its cold reference.

/// Sends a long `blocker` and then `reqs` in one write on one connection,
/// and returns the responses ordered by request id (blocker first). The
/// reader admits, dedups or sheds the whole burst back to back while the
/// blocker's sweep holds the only worker, so what queues, attaches or sheds
/// follows by construction, not from thread timing.
std::vector<Frame> send_burst(const TestServer& ts,
                              const CharacterizeRequest& blocker,
                              const std::vector<CharacterizeRequest>& reqs) {
  std::string bytes;
  for (std::size_t i = 0; i <= reqs.size(); ++i) {
    bytes += encode_frame({MsgType::characterize, i, 0,
                           encode_request(i == 0 ? blocker : reqs[i - 1])});
  }
  std::string err;
  const int fd = connect_endpoint(ts.server.endpoint(), &err);
  require(fd >= 0, "burst connect: " + err);
  send_all(fd, bytes);
  FrameReader reader;
  std::vector<Frame> frames(reqs.size() + 1);
  std::size_t got = 0;
  char buf[4096];
  while (got < frames.size()) {
    require(wait_readable(fd, 60000) == 1, "burst: server hung");
    const long n = recv_some(fd, buf, sizeof(buf));
    require(n > 0, "burst: connection closed early");
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto frame = reader.next()) {
      require(frame->request_id < frames.size(), "burst: unknown request id");
      frames[frame->request_id] = std::move(*frame);
      ++got;
    }
  }
  close_fd(fd);
  return frames;
}

int scenario_storm(const ChaosOptions& opts) {
  ServerOptions sopts = base_options();
  sopts.workers = 1;
  sopts.queue_capacity = 2;
  sopts.retry_hint_ms = 20;
  TestServer ts(sopts);

  // Distinct storm. Widths 4..9 are all distinct, so dedup can't absorb
  // the burst: behind a 30-point blocker at most two fit the queue and the
  // rest must shed.
  constexpr int kClients = 6;
  CharacterizeRequest blocker = small_request(30);
  blocker.min_precision = 1;
  std::vector<CharacterizeRequest> distinct;
  for (int i = 0; i < kClients; ++i) distinct.push_back(small_request(4 + i));
  for (const Frame& f : send_burst(ts, blocker, distinct)) {
    require(f.type == MsgType::ok_surface || f.type == MsgType::retry_later,
            "distinct burst: expected ok_surface or retry_later");
  }
  const Server::Stats mid = ts.server.stats();
  note(opts, "distinct storm done: shed=" + std::to_string(mid.shed));
  require(mid.shed > 0, "7 requests vs 2-slot queue never shed: "
                        "backpressure not exercised");

  // Shed requests complete after client backoff: six concurrent retrying
  // clients re-send the distinct requests.
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  std::vector<ComponentCharacterization> results(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientOptions copt;
      copt.max_attempts = 64;
      copt.jitter_seed = static_cast<std::uint64_t>(i + 1);
      ServiceClient client(ts.server.endpoint(), copt);
      std::string err;
      const auto surface = client.characterize(distinct[i], &err);
      if (!surface.has_value()) {
        errors[i] = err;
        return;
      }
      results[i] = surface->surface;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    require(errors[i].empty(),
            "storm client " + std::to_string(i) + ": " + errors[i]);
    require_same_surface(results[i], cold_surface(distinct[i]),
                         "storm client " + std::to_string(i));
  }

  // Identical storm: one request sent six times at once must compute once
  // and fan the result out. Behind a 32-point blocker the first copy
  // queues and the other five attach to it.
  blocker = small_request(32);
  blocker.min_precision = 1;
  const CharacterizeRequest same = small_request(10);
  const std::vector<Frame> frames =
      send_burst(ts, blocker, std::vector<CharacterizeRequest>(kClients, same));
  const ComponentCharacterization want = cold_surface(same);
  for (int i = 1; i <= kClients; ++i) {
    require(frames[i].type == MsgType::ok_surface,
            "identical burst " + std::to_string(i) + ": not ok_surface");
    require_same_surface(decode_surface_response(frames[i].payload).surface,
                         want, "identical burst " + std::to_string(i));
  }
  require(ts.server.stats().deduped > 0,
          "identical storm never deduped onto one computation");
  ts.server.stop();
  return 0;
}

// --- scenario: kill ---------------------------------------------------------
// Process-level crash-safety: spawn a real `aapx serve` child snapshotting
// at a tight interval, feed it work, SIGKILL it at a different phase each
// round, and require its store file to reopen cleanly every time. Finishes
// with a warm restart: a fresh server on the survivor store still serves
// (and a retrying client rides across the restart gap).

int scenario_kill(const ChaosOptions& opts) {
  const std::string store =
      opts.work_dir + "/chaos_kill_store.aapx";
  const std::string endpoint =
      "unix:" + opts.work_dir + "/chaos_kill.sock";
  std::filesystem::remove(store);

  const CharacterizeRequest req = small_request();
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    const pid_t pid = ::fork();
    require(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: immediately exec a real server (fork-without-exec would be
      // unsafe here — the parent has run multithreaded servers already).
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, 1);
        ::dup2(devnull, 2);
      }
      ::execl(opts.aapx.c_str(), opts.aapx.c_str(), "serve",
              "--listen", endpoint.c_str(), "--store", store.c_str(),
              "--snapshot-interval", "0.02", "--workers", "2",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    // Wait for the child to listen, give it work, then kill it at a
    // different point in its snapshot cycle each round.
    ServiceClient client(endpoint, {.max_attempts = 40});
    std::string err;
    require(client.ping(&err), "child server never came up: " + err);
    (void)client.characterize(small_request(4 + round), &err);
    std::this_thread::sleep_for(std::chrono::milliseconds(10 + 17 * round));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    require(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
            "child did not die by SIGKILL");

    // Invariant 3: whatever instant the kill hit, the store file is either
    // absent, the old snapshot or the new one — never torn.
    const engine::StoreFileData data = engine::load_store_file(store);
    if (data.file_found) {
      require(data.header_ok, "round " + std::to_string(round) +
                                  ": store header corrupt after SIGKILL");
      require(data.records_dropped == 0,
              "round " + std::to_string(round) +
                  ": torn records after SIGKILL");
    }
    note(opts, "round " + std::to_string(round) + ": store " +
                   (data.file_found ? "intact" : "absent") + " after SIGKILL");
  }

  // Warm restart: a fresh in-process server opens the survivor store (also
  // cleaning any stale .tmp the kill left) and serves bit-identically. A
  // retrying client issued before the server is up rides the backoff.
  Context::Options ropt;
  ropt.store_path = store;
  Context root(ropt);
  ServerOptions sopts = base_options();
  sopts.listen = endpoint;
  Server server(root, sopts);

  std::string result_err;
  std::optional<engine::SurfacePayload> late;
  std::thread early_client([&] {
    ServiceClient client(endpoint, {.max_attempts = 60});
    late = client.characterize(req, &result_err);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::string err;
  require(server.start(&err), "warm restart failed: " + err);
  early_client.join();
  require(late.has_value(), "client did not survive restart: " + result_err);
  require_same_surface(late->surface, cold_surface(req), "kill/warm-restart");
  require(!std::filesystem::exists(store + ".tmp"),
          "stale .tmp survived DesignStore::open");
  server.stop();
  return 0;
}

// --- scenario: scrape -------------------------------------------------------
// Observability under load: a server takes a shedding storm of distinct
// requests while its in-band stats op is scraped in a tight loop the whole
// time. Scrape latency stays bounded, every completed surface is
// bit-identical to its cold (unscraped, local) reference, the final
// counters reconcile exactly with the client-side tallies both in-process
// and over the wire, and a real `aapx client --op stats` against the live
// server prints them.

/// Runs `aapx client --connect <endpoint> --op stats` and returns its stdout;
/// requires a clean exit.
std::string run_client_stats(const ChaosOptions& opts,
                             const std::string& endpoint) {
  int out[2];
  require(::pipe(out) == 0, "pipe failed");
  const pid_t pid = ::fork();
  require(pid >= 0, "fork failed");
  if (pid == 0) {
    ::dup2(out[1], 1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, 2);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(opts.aapx.c_str(), opts.aapx.c_str(), "client", "--connect",
            endpoint.c_str(), "--op", "stats", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  std::string text;
  char buf[4096];
  long n = 0;
  while ((n = ::read(out[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  require(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "`aapx client --op stats` did not exit clean");
  return text;
}

/// The characterize row's latency-histogram count in a stats response; 0
/// when the row is absent.
std::uint64_t characterize_count(const StatsResponse& s) {
  for (const auto& op : s.ops) {
    if (op.op == static_cast<std::uint32_t>(MsgType::characterize)) {
      return op.count;
    }
  }
  return 0;
}

int scenario_scrape(const ChaosOptions& opts) {
  ServerOptions sopts = base_options();
  sopts.workers = 1;
  sopts.queue_capacity = 2;  // small queue: the storm sheds while scraped
  sopts.retry_hint_ms = 20;
  TestServer ts(sopts);

  // Scraper: hammer the stats op until the storm is done. It is answered
  // inline on the reader thread and never touches the worker queue, so no
  // scrape may block — each round's latency must stay far below the storm's
  // compute time.
  std::atomic<bool> done{false};
  std::string scrape_error;
  std::uint64_t scrapes = 0;
  std::int64_t worst_us = 0;
  std::thread scraper([&] {
    try {
      ServiceClient stats_client(ts.server.endpoint());
      while (!done.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        std::string err;
        const auto s = stats_client.stats(&err);
        require(s.has_value(), "stats op failed mid-storm: " + err);
        worst_us = std::max(
            worst_us, std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
        ++scrapes;
      }
    } catch (const std::exception& e) {
      scrape_error = e.what();
    }
  });

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  std::vector<ComponentCharacterization> results(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const CharacterizeRequest req = small_request(4 + i);
      ClientOptions copt;
      copt.max_attempts = 64;
      copt.jitter_seed = static_cast<std::uint64_t>(i + 1);
      ServiceClient client(ts.server.endpoint(), copt);
      std::string err;
      const auto surface = client.characterize(req, &err);
      if (!surface.has_value()) {
        errors[i] = err;
        return;
      }
      results[i] = surface->surface;
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  scraper.join();
  require(scrape_error.empty(), "scraper: " + scrape_error);
  require(scrapes > 0, "scraper never completed a round");
  // "Bounded" concretely: every round finished inside the client's socket
  // budget; anything near 5 s means the stats op queued behind work.
  require(worst_us < 5'000'000, "scrape latency unbounded: " +
                                    std::to_string(worst_us) + " us");
  note(opts, "scraped " + std::to_string(scrapes) + " rounds, worst " +
                 std::to_string(worst_us) + " us");

  // Scraping never perturbed the results: bit-identical to cold.
  for (int i = 0; i < kClients; ++i) {
    require(errors[i].empty(),
            "scrape-storm client " + std::to_string(i) + ": " + errors[i]);
    require_same_surface(results[i], cold_surface(small_request(4 + i)),
                         "scrape-storm client " + std::to_string(i));
  }

  // Exact reconciliation against the client-side tally. Every request is
  // counted before its response leaves, so one read after the clients
  // joined is already exact.
  const StatsResponse fin = ts.server.stats_response();
  require(fin.completed == kClients,
          "completed=" + std::to_string(fin.completed) + ", want " +
              std::to_string(kClients));
  require(fin.requests == kClients,
          "admitted=" + std::to_string(fin.requests) +
              " != client-side tally (shed re-sends must not re-count)");
  require(characterize_count(fin) == kClients,
          "latency histogram count " +
              std::to_string(characterize_count(fin)) + " != completed " +
              std::to_string(kClients));
  // The same exact counts must survive the wire encoding.
  std::string err;
  const auto wire = ServiceClient(ts.server.endpoint()).stats(&err);
  require(wire.has_value(), "final stats op failed: " + err);
  require(wire->completed == kClients && wire->requests == kClients,
          "wire stats completed/requests != client-side tally");
  require(characterize_count(*wire) == kClients,
          "wire characterize histogram count != client-side tally");

  // A real `aapx client --op stats` against the live server renders the
  // same tallies and exits 0.
  const std::string text = run_client_stats(opts, ts.server.endpoint());
  require(text.find("completed " + std::to_string(kClients) + " ") !=
              std::string::npos,
          "`aapx client --op stats` did not print completed " +
              std::to_string(kClients));
  ts.server.stop();
  return 0;
}

/// Runs one scenario; 0 on pass, 1 on an invariant violation (details on
/// stderr), 2 for an unknown name.
int run_scenario(const std::string& name, const ChaosOptions& options) {
  // AAPX_CHAOS_ITERS repeats every scenario (the CI extended-fuzz job sets
  // it to 20): each repetition re-creates its server/store from scratch, so
  // the loop shakes out timing-dependent orderings a single pass can miss.
  long iters = 1;
  if (const char* env = std::getenv("AAPX_CHAOS_ITERS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 1) iters = parsed;
  }
  try {
    int rc = 0;
    for (long iter = 0; iter < iters && rc == 0; ++iter) {
      if (name == "drop") {
        rc = scenario_drop(options);
      } else if (name == "slowloris") {
        rc = scenario_slowloris(options);
      } else if (name == "malformed") {
        rc = scenario_malformed(options);
      } else if (name == "storm") {
        rc = scenario_storm(options);
      } else if (name == "kill") {
        rc = scenario_kill(options);
      } else if (name == "scrape") {
        rc = scenario_scrape(options);
      } else {
        std::fprintf(stderr, "chaos: unknown scenario '%s'\n", name.c_str());
        return 2;
      }
      if (rc == 0 && iters > 1) {
        std::fprintf(stderr, "chaos %s: iteration %ld/%ld ok\n", name.c_str(),
                     iter + 1, iters);
      }
    }
    if (rc == 0) std::fprintf(stderr, "chaos %s: PASS\n", name.c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos %s: FAIL: %s\n", name.c_str(), e.what());
    return 1;
  }
}

}  // namespace
}  // namespace aapx::service

int main(int argc, char** argv) {
  using aapx::service::run_scenario;
  if (argc < 4 || (argc == 5 && std::strcmp(argv[4], "--verbose") != 0) ||
      argc > 5) {
    std::fprintf(stderr,
                 "usage: chaos_harness <scenario|all> <aapx binary> "
                 "<work dir> [--verbose]\n");
    return 2;
  }
  aapx::service::ChaosOptions options;
  options.aapx = argv[2];
  options.work_dir = argv[3];
  options.verbose = argc == 5;
  const std::string scenario = argv[1];
  if (scenario != "all") return run_scenario(scenario, options);
  int rc = 0;
  for (const char* name :
       {"drop", "slowloris", "malformed", "storm", "kill", "scrape"}) {
    rc |= run_scenario(name, options);
  }
  return rc;
}
