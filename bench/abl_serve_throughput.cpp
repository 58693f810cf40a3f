// Ablation (ISSUE 6) — characterization-as-a-service throughput: queries
// per second against an in-process `aapx serve` server, cold store vs warm
// store, at 1/2/4 concurrent clients. The qps numbers are machine-dependent
// (they land in BENCH_abl_serve_throughput.json as qps_* fields, which the
// regression checker ignores like wall_s). One cold pass lasts a few
// milliseconds, so each client count runs kColdPasses of them, each on a
// fresh server, and reports their median as qps_cold_N with the spread as
// qps_cold_N_min / qps_cold_N_max. The warm pass, the request count and the
// checksum come from the first cold pass's server only; request_errors
// counts every pass. The request counts, error count
// and the gate checksum over every returned surface are informational too:
// since the server learned to shed load under deadline pressure, how many
// requests complete inside the timed window — and hence the checksum over
// the surfaces that did come back — depends on machine speed. The
// bit-identical-to-local contract is enforced by the service tests, not by
// this bench.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "engine/context.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

using namespace aapx;
using namespace aapx::bench;

namespace {

/// One request per adder width, all distinct, so a cold pass stays cold:
/// every request misses the store. 12 requests (24 in full mode) give each
/// of 4 clients at least 3, so qps_cold_4 measures throughput, not one
/// sweep's latency.
std::vector<service::CharacterizeRequest> make_workload(bool fast) {
  std::vector<service::CharacterizeRequest> reqs;
  const int widths = fast ? 12 : 24;
  for (int width = 4; width < 4 + widths; ++width) {
    service::CharacterizeRequest req;
    req.spec.kind = ComponentKind::adder;
    req.spec.width = width;
    req.spec.adder_arch = AdderArch::ripple;
    req.scenarios = {{StressMode::worst, 10.0}};
    req.min_precision = width - 2;
    reqs.push_back(req);
  }
  return reqs;
}

/// Cold passes per client count; odd, so the median is one pass's qps.
constexpr int kColdPasses = 7;

struct PassResult {
  double qps = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t gates = 0;  ///< sum over every point of every response
};

/// Issues `repeat` rounds of the workload, request i pinned to client
/// thread i % clients (a deterministic partition, so the per-response
/// checksums are independent of scheduling).
PassResult run_pass(const std::string& endpoint,
                    const std::vector<service::CharacterizeRequest>& reqs,
                    int clients, int repeat) {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> gates{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::ClientOptions copt;
      copt.tracer = &bench_context().tracer();
      service::ServiceClient client(endpoint, copt);
      std::string err;
      for (int round = 0; round < repeat; ++round) {
        for (std::size_t i = c; i < reqs.size();
             i += static_cast<std::size_t>(clients)) {
          const auto response = client.characterize(reqs[i], &err);
          if (!response.has_value()) {
            errors.fetch_add(1);
            continue;
          }
          completed.fetch_add(1);
          std::uint64_t g = 0;
          for (const auto& pt : response->surface.points) g += pt.gates;
          gates.fetch_add(g);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PassResult r;
  r.completed = completed.load();
  r.errors = errors.load();
  r.gates = gates.load();
  r.qps = static_cast<double>(r.completed) / std::max(wall, 1e-12);
  return r;
}

int run(int argc, char** argv) {
  print_banner("Ablation — `aapx serve` throughput",
               "Characterization queries per second, cold vs warm store, at "
               "1/2/4 concurrent clients (one server, shared DesignStore).");
  BenchJson bench_json("abl_serve_throughput", argc, argv);
  const bool fast = fast_mode(argc, argv);
  const int warm_rounds = arg_int(argc, argv, "--rounds", fast ? 3 : 5);
  const std::vector<service::CharacterizeRequest> reqs = make_workload(fast);

  TextTable table({"clients", "cold qps (median)", "cold min..max",
                   "warm qps", "warm/cold"});
  std::uint64_t total_completed = 0;
  std::uint64_t total_errors = 0;
  std::uint64_t gates_checksum = 0;
  for (const int clients : {1, 2, 4}) {
    // A fresh server Context per cold pass: every cold pass really is cold,
    // and the warm pass that follows the first one hits the store that pass
    // just filled. It traces into the bench root's tracer.
    std::vector<double> cold_qps;
    PassResult cold;
    PassResult warm;
    service::StatsResponse stats;
    for (int pass = 0; pass < kColdPasses; ++pass) {
      Context::Options root_options;
      root_options.tracer = &bench_context().tracer();
      const Context root(root_options);
      service::ServerOptions opts;
      opts.listen = "tcp:0";
      service::Server server(root, opts);
      std::string err;
      if (!server.start(&err)) {
        std::fprintf(stderr, "abl_serve_throughput: %s\n", err.c_str());
        return 1;
      }
      const PassResult r = run_pass(server.endpoint(), reqs, clients, 1);
      cold_qps.push_back(r.qps);
      total_errors += r.errors;
      if (pass == 0) {
        cold = r;
        warm = run_pass(server.endpoint(), reqs, clients, warm_rounds);
        // Per-op latency quantiles from the server's own histograms (the
        // same interpolation `aapx client --op stats` shows), exported as
        // informational metrics.
        stats = server.stats_response();
      }
      server.stop();
    }
    std::sort(cold_qps.begin(), cold_qps.end());
    const double cold_median = cold_qps[cold_qps.size() / 2];

    total_completed += cold.completed + warm.completed;
    total_errors += warm.errors;
    gates_checksum += cold.gates + warm.gates;
    const std::string tag = std::to_string(clients);
    bench_json.metric("qps_cold_" + tag, cold_median);
    bench_json.metric("qps_cold_" + tag + "_min", cold_qps.front());
    bench_json.metric("qps_cold_" + tag + "_max", cold_qps.back());
    bench_json.metric("qps_warm_" + tag, warm.qps);
    for (const auto& op : stats.ops) {
      if (static_cast<service::MsgType>(op.op) !=
          service::MsgType::characterize) {
        continue;
      }
      const obs::HistogramSample sample = op.sample();
      bench_json.metric("latency_c" + tag + "_p50_ms",
                        obs::histogram_quantile(sample, 0.50) / 1000.0);
      bench_json.metric("latency_c" + tag + "_p95_ms",
                        obs::histogram_quantile(sample, 0.95) / 1000.0);
      bench_json.metric("latency_c" + tag + "_p99_ms",
                        obs::histogram_quantile(sample, 0.99) / 1000.0);
    }
    std::string spread = TextTable::num(cold_qps.front(), 1);
    spread.append("..").append(TextTable::num(cold_qps.back(), 1));
    table.add_row({tag, TextTable::num(cold_median, 1), spread,
                   TextTable::num(warm.qps, 1),
                   TextTable::num(warm.qps / std::max(cold_median, 1e-12), 2)});
  }
  bench_json.metric("requests_total", static_cast<double>(total_completed));
  bench_json.metric("request_errors", static_cast<double>(total_errors));
  bench_json.metric("gates_checksum", static_cast<double>(gates_checksum));
  table.print(std::cout);
  std::printf("\n(warm responses are store hits — the shared-DesignStore "
              "payoff the service exists for; qps is machine-dependent, the "
              "checksums are not)\n");
  return total_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return aapx::bench::guarded_main(argc, argv,
                                   [&] { return run(argc, argv); });
}
