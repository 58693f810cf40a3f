// Coverage of service telemetry: the in-band `stats` op (exact counts,
// per-op latency histograms, the bounded slow-request ring), the service.*
// series in the root registry that `--metrics` writes, trace-id stamping,
// and the determinism contract that scraping a running server's stats never
// perturbs its run-log bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/context.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace aapx::service {
namespace {

namespace fs = std::filesystem;

CharacterizeRequest small_request(int width = 6) {
  CharacterizeRequest req;
  req.spec.kind = ComponentKind::adder;
  req.spec.width = width;
  req.spec.adder_arch = AdderArch::ripple;
  req.scenarios = {{StressMode::worst, 10.0}};
  req.min_precision = width - 2;
  return req;
}

TEST(ServeStats, InBandStatsOpIsExactAndCountsNeitherPingNorItself) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ServiceClient client(server.endpoint());
  ASSERT_TRUE(client.ping(&err)) << err;

  const auto before = client.stats(&err);
  ASSERT_TRUE(before.has_value()) << err;
  // ping and stats are control traffic, not requests.
  EXPECT_EQ(before->requests, 0u);
  EXPECT_EQ(before->completed, 0u);
  EXPECT_EQ(before->connections, 1u);
  EXPECT_EQ(before->queue_depth, 0u);
  EXPECT_EQ(before->inflight, 0u);
  EXPECT_GE(before->uptime_s, 0.0);
  EXPECT_DOUBLE_EQ(before->snapshot_age_s, -1.0);  // store never snapshotted
  EXPECT_TRUE(before->ops.empty());

  ASSERT_TRUE(client.characterize(small_request(), &err).has_value()) << err;
  const auto after = client.stats(&err);
  ASSERT_TRUE(after.has_value()) << err;
  // The client holds the response, so the server's counters must already
  // reflect it (completed is counted before the send) — no settling wait.
  EXPECT_EQ(after->requests, 1u);
  EXPECT_EQ(after->completed, 1u);
  ASSERT_EQ(after->ops.size(), 1u);
  const StatsResponse::OpLatency& lat = after->ops[0];
  EXPECT_EQ(static_cast<MsgType>(lat.op), MsgType::characterize);
  EXPECT_EQ(lat.count, 1u);
  EXPECT_GT(lat.sum_us, 0.0);
  EXPECT_EQ(lat.min_us, lat.max_us);  // one observation
  std::uint64_t bucketed = 0;
  for (const auto& [index, count] : lat.buckets) bucketed += count;
  EXPECT_EQ(bucketed, lat.count) << "histogram buckets must reconcile";

  // library_query is answered on the reader thread, not by a worker; it too
  // is counted before its response leaves, so an in-process read right
  // after the call returns already sees it.
  ASSERT_TRUE(client.library_query({}, &err).has_value()) << err;
  const StatsResponse queried = server.stats_response();
  EXPECT_EQ(queried.requests, 2u);
  EXPECT_EQ(queried.completed, 2u);
  ASSERT_EQ(queried.ops.size(), 2u);
  EXPECT_EQ(static_cast<MsgType>(queried.ops[1].op), MsgType::library_query);
  EXPECT_EQ(queried.ops[1].count, 1u);
  server.stop();
}

// TSan target: concurrent request traffic, an in-band scraper and direct
// stats_response() calls racing — counts must still be exact.
TEST(ServeStats, CountsStayExactUnderConcurrentClientsAndScrapes) {
  constexpr int kClients = 4;
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    ServiceClient probe(server.endpoint());
    while (!done.load()) {
      std::string serr;
      const auto snap = probe.stats(&serr);
      EXPECT_TRUE(snap.has_value()) << serr;
      (void)server.stats_response();
    }
  });
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ServiceClient client(server.endpoint());
      std::string cerr;
      EXPECT_TRUE(client.characterize(small_request(4 + i), &cerr).has_value())
          << cerr;
    });
  }
  for (auto& t : threads) t.join();
  done.store(true);
  scraper.join();

  const StatsResponse fin = server.stats_response();
  EXPECT_EQ(fin.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(fin.completed, static_cast<std::uint64_t>(kClients));
  ASSERT_EQ(fin.ops.size(), 1u);
  EXPECT_EQ(fin.ops[0].count, static_cast<std::uint64_t>(kClients));
  server.stop();
}

// The server's latency histograms and gauges live in the root Context's
// registry, which is what `aapx serve --metrics` writes: every series is
// registered there, and the characterize histogram counts exactly the
// requests the server completed.
TEST(ServeStats, RootRegistryCarriesTheServiceSeries) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ServiceClient client(server.endpoint());
  for (int width = 4; width < 7; ++width) {
    CharacterizeRequest req = small_request(width);
    req.deadline_ms = 60'000;
    ASSERT_TRUE(client.characterize(req, &err).has_value()) << err;
  }
  const std::uint64_t completed = server.stats().completed;
  server.stop();
  EXPECT_EQ(completed, 3u);

  const obs::MetricsSnapshot snap = root.metrics().snapshot();
  std::map<std::string, std::uint64_t> hist_counts;
  for (const auto& [name, sample] : snap.histograms) {
    hist_counts[name] = sample.count;
  }
  for (const char* name :
       {"service.latency_us.characterize", "service.latency_us.aged_delay",
        "service.latency_us.library_query", "service.queue_wait_us"}) {
    EXPECT_TRUE(hist_counts.count(name)) << name << " not registered";
  }
  std::map<std::string, double> gauge_max;
  for (const auto& [name, value_max] : snap.gauges) {
    gauge_max[name] = value_max.second;
  }
  for (const char* name :
       {"service.queue.depth", "service.deadline.slack_ms"}) {
    EXPECT_TRUE(gauge_max.count(name)) << name << " not registered";
  }
  EXPECT_EQ(hist_counts["service.latency_us.characterize"], completed);
  EXPECT_EQ(hist_counts["service.queue_wait_us"], completed);
  EXPECT_GT(gauge_max["service.deadline.slack_ms"], 0.0);
}

TEST(ServeStats, ClientStampsTraceIdsAndServerEchoesThem) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ServiceClient client(server.endpoint());

  // Default: every logical call gets its own deterministic non-zero id.
  ASSERT_TRUE(client.ping(&err)) << err;
  const std::uint64_t first = client.last_trace_id();
  EXPECT_NE(first, 0u);
  ASSERT_TRUE(client.ping(&err)) << err;
  EXPECT_NE(client.last_trace_id(), 0u);
  EXPECT_NE(client.last_trace_id(), first);

  // Forced: the caller's id is stamped and comes back on the response.
  client.set_trace_id(0xabcdef0123456789ull);
  const CallResult result = client.call(MsgType::ping, {});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.frame.trace_id, 0xabcdef0123456789ull);
  EXPECT_EQ(client.last_trace_id(), 0xabcdef0123456789ull);
  server.stop();
}

TEST(ServeStats, SlowRequestRingIsBoundedAndCarriesTraceIds) {
  Context root;
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ServiceClient client(server.endpoint());
  // More requests than the ring holds; library queries on an empty store
  // are cheap, so the overflow costs no sweeps.
  constexpr std::uint64_t kQueries = kSlowRequestRing + 4;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client.library_query({}, &err).has_value()) << err;
  }
  const StatsResponse snap = server.stats_response();
  EXPECT_EQ(snap.completed, kQueries);
  ASSERT_EQ(snap.slow.size(), kSlowRequestRing) << "ring must stay bounded";
  for (std::size_t i = 0; i < snap.slow.size(); ++i) {
    const auto& s = snap.slow[i];
    EXPECT_EQ(static_cast<MsgType>(s.op), MsgType::library_query);
    EXPECT_LT(s.seq, kQueries);
    EXPECT_NE(s.trace_id, 0u) << "client stamps ids by default";
    if (i > 0) {
      EXPECT_GE(snap.slow[i - 1].latency_us, s.latency_us) << "descending";
    }
  }
  server.stop();
}

/// args.n of every B event named `name`, in trace order.
std::vector<std::uint64_t> span_args(const obs::JsonValue& doc,
                                     const std::string& name) {
  std::vector<std::uint64_t> ns;
  for (const obs::JsonValue& e : doc.find("traceEvents")->array) {
    if (e.str_or("ph", "") != "B" || e.str_or("name", "") != name) continue;
    const obs::JsonValue* args = e.find("args");
    ns.push_back(args == nullptr
                     ? 0
                     : static_cast<std::uint64_t>(args->num_or("n", 0)));
  }
  return ns;
}

// `aapx serve --trace` is the one span stream: per-request Contexts borrow
// the root's tracer, and the wire trace id joins a client's attempts to the
// server work they caused.
TEST(ServeStats, RootTraceCarriesEachRequestsTraceId) {
  Context root;
  root.tracer().start();
  Server server(root, ServerOptions{});
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ClientOptions copt;
  copt.tracer = &root.tracer();
  ServiceClient client(server.endpoint(), copt);
  client.set_trace_id(101);
  ASSERT_TRUE(client.characterize(small_request(4), &err).has_value()) << err;
  client.set_trace_id(202);
  ASSERT_TRUE(client.characterize(small_request(5), &err).has_value()) << err;
  server.stop();

  std::ostringstream os;
  root.tracer().stop_and_write(os);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const std::vector<std::string> errors = obs::validate_trace(*doc);
  EXPECT_TRUE(errors.empty()) << errors.front();
  const std::vector<std::uint64_t> ids{101, 202};
  EXPECT_EQ(span_args(*doc, "serve.characterize"), ids);
  EXPECT_EQ(span_args(*doc, "client.attempt"), ids);
  EXPECT_EQ(span_args(*doc, "characterize").size(), 2u);
}

std::map<std::string, std::string> slurp_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream is(entry.path(), std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    files[entry.path().filename().string()] = os.str();
  }
  return files;
}

/// One deterministic request sequence from a fresh client (fixed request
/// ids, fixed default trace-id stream, fixed job sequence numbers).
void drive_requests(const std::string& endpoint) {
  ServiceClient client(endpoint);
  std::string err;
  ASSERT_TRUE(client.characterize(small_request(4), &err).has_value()) << err;
  ASSERT_TRUE(client.characterize(small_request(5), &err).has_value()) << err;
  AgedDelayRequest areq;
  areq.spec = small_request(4).spec;
  areq.mode = StressMode::worst;
  areq.years = 10.0;
  ASSERT_TRUE(client.aged_delay(areq, &err).has_value()) << err;
}

// The observability acceptance contract: run the same request sequence with
// and without a scraper hammering the stats op; the per-request run logs
// must be byte-identical. Scraping is read-only.
TEST(ServeStats, ScrapingDoesNotPerturbRunLogBytes) {
  const fs::path base = fs::temp_directory_path() / "aapx_stats_logs";
  const fs::path quiet_dir = base / "quiet";
  const fs::path scraped_dir = base / "scraped";
  fs::remove_all(base);
  fs::create_directories(quiet_dir);
  fs::create_directories(scraped_dir);

  {
    Context root;
    ServerOptions opts;
    opts.log_dir = quiet_dir.string();
    Server server(root, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    drive_requests(server.endpoint());
    server.stop();
  }
  {
    Context root;
    ServerOptions opts;
    opts.log_dir = scraped_dir.string();
    Server server(root, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    std::atomic<bool> done{false};
    std::thread scraper([&] {
      ServiceClient probe(server.endpoint());
      while (!done.load()) {
        std::string serr;
        EXPECT_TRUE(probe.stats(&serr).has_value()) << serr;
      }
    });
    drive_requests(server.endpoint());
    done.store(true);
    scraper.join();
    server.stop();
  }

  const auto quiet = slurp_dir(quiet_dir);
  const auto scraped = slurp_dir(scraped_dir);
  ASSERT_EQ(quiet.size(), 3u);  // one log per admitted request
  ASSERT_EQ(scraped.size(), quiet.size());
  for (const auto& [name, bytes] : quiet) {
    const auto it = scraped.find(name);
    ASSERT_NE(it, scraped.end()) << name;
    EXPECT_EQ(it->second, bytes) << name << " perturbed by scraping";
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace aapx::service
