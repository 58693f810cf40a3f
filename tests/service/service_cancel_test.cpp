// CancelToken semantics (ISSUE 6 satellite): a cancelled sweep leaves no
// partial records in the store, a deadline-expired serve request emits a
// schema-valid `cancelled` run-log record, and cancellation never perturbs
// the results (or the run-log bytes) of surviving requests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/characterizer.hpp"
#include "engine/cancel.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "obs/report.hpp"
#include "obs/runlog.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace aapx::service {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

ComponentCharacterization run_characterize(const Context& ctx,
                                           const CellLibrary& lib,
                                           const ComponentSpec& spec) {
  CharacterizerOptions opt;
  opt.min_precision = spec.width - 2;
  const ComponentCharacterizer ch(ctx, lib, AgingModel{}, opt);
  return ch.characterize(spec, {{StressMode::worst, 10.0}});
}

TEST(CancelToken, TripsOnCancelAndOnDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("test"));
  token.set_deadline_after(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check("test.deadline"), CancelledError);
  token.clear_deadline();
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  try {
    token.check("test.where");
    FAIL() << "tripped token did not throw";
  } catch (const CancelledError& e) {
    EXPECT_STREQ(e.what(), "cancelled: test.where");
  }
}

TEST(CancelToken, PreCancelledSweepLeavesStoreEmpty) {
  CancelToken token;
  token.cancel();
  Context::Options opt;
  opt.threads = 1;
  opt.cancel = &token;
  const Context ctx(opt);
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec spec{ComponentKind::adder, 8, 0, AdderArch::ripple,
                           MultArch::array};
  EXPECT_THROW(run_characterize(ctx, lib, spec), CancelledError);
  // Transactional-insertion contract: nothing was completed, so nothing
  // was stored — saving yields a file with zero records.
  const std::string path = temp_path("aapx_cancel_precancel.aapx");
  ASSERT_TRUE(ctx.store().save(path));
  const engine::StoreFileData data = engine::load_store_file(path);
  EXPECT_TRUE(data.header_ok);
  EXPECT_TRUE(data.records.empty());
  std::filesystem::remove(path);
}

TEST(CancelToken, MidSweepCancelLeavesNoPartialSurface) {
  const CellLibrary lib = make_nangate45_like();
  // Every precision point of a 32-bit array multiplier: each point
  // synthesizes and times a netlist of thousands of gates, so the 31 points
  // left after the first one take far longer than the canceller needs to
  // wake. A loaded machine can still starve the canceller's thread, so a
  // sweep that outruns it is retried on a fresh token and Context; one that
  // outruns it on every attempt fails the test.
  const ComponentSpec spec{ComponentKind::multiplier, 32, 0, AdderArch::ripple,
                           MultArch::array};
  CharacterizerOptions copt;
  copt.min_precision = 1;
  constexpr int kAttempts = 5;
  std::unique_ptr<CancelToken> token;
  std::unique_ptr<Context> ctx;  // borrows *token: declared after it
  bool threw = false;
  for (int attempt = 0; attempt < kAttempts && !threw; ++attempt) {
    ctx.reset();
    token = std::make_unique<CancelToken>();
    Context::Options opt;
    opt.threads = 1;
    opt.cancel = token.get();
    ctx = std::make_unique<Context>(opt);
    const ComponentCharacterizer ch(*ctx, lib, AgingModel{}, copt);
    // Cancel on progress, not on a wall-clock sleep: the first point's
    // netlist miss means the sweep is past its prewarm and in its point
    // loop.
    std::atomic<bool> sweep_done{false};
    std::thread canceller([&] {
      while (ctx->store().stats().netlist_misses == 0 &&
             !sweep_done.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
      token->cancel();
    });
    try {
      ch.characterize(spec, {{StressMode::worst, 10.0}});
    } catch (const CancelledError&) {
      threw = true;
    }
    sweep_done.store(true, std::memory_order_relaxed);
    canceller.join();
  }
  ASSERT_TRUE(threw) << "the sweep outran the canceller on all " << kAttempts
                     << " attempts";
  // Sub-artifacts of completed grains (netlists, aged libraries, delays)
  // may be cached — that is the "exactly as warm as completed work"
  // contract — but no characterization surface may exist: the surface
  // insertion is post-build only.
  EXPECT_TRUE(ctx->store().surface_snapshot().empty());
  // The store is not poisoned: the same request retried on the same store
  // — through a fresh token-less Context, the way the server arms a new
  // Context per request — completes and matches a computation in a fully
  // fresh context bit-for-bit.
  Context::Options retry_opt;
  retry_opt.threads = 1;
  retry_opt.shared_store = &ctx->store();
  const Context retry_ctx(retry_opt);
  Context::Options fresh_opt;
  fresh_opt.threads = 1;
  const Context fresh(fresh_opt);
  const ComponentCharacterization retried =
      run_characterize(retry_ctx, lib, spec);
  const ComponentCharacterization want = run_characterize(fresh, lib, spec);
  ASSERT_EQ(retried.points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(retried.points[i].precision, want.points[i].precision);
    EXPECT_EQ(retried.points[i].fresh_delay, want.points[i].fresh_delay);
    EXPECT_EQ(retried.points[i].aged_delay, want.points[i].aged_delay);
  }
}

TEST(CancelToken, DeadlineExpiredRequestEmitsSchemaValidCancelledRecord) {
  const std::string log_dir = temp_path("aapx_cancel_logs");
  std::filesystem::remove_all(log_dir);
  std::filesystem::create_directories(log_dir);

  Context root;
  ServerOptions sopts;
  sopts.listen = "tcp:0";
  sopts.workers = 1;
  sopts.log_dir = log_dir;
  Server server(root, sopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // A 1 ms deadline on a 32-point sweep expires mid-flight for certain.
  CharacterizeRequest req;
  req.spec = {ComponentKind::adder, 32, 0, AdderArch::ripple,
              MultArch::array};
  req.min_precision = 1;
  req.deadline_ms = 1;
  ServiceClient client(server.endpoint());
  const CallResult result =
      client.call(MsgType::characterize, encode_request(req));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.cancelled) << result.error;
  EXPECT_EQ(server.stats().cancelled, 1u);
  server.stop();

  // The per-request run log must exist, parse, be schema-valid record by
  // record (the `aapx report --check` contract), and contain the
  // `cancelled` record with its required fields.
  bool found_cancelled = false;
  int log_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(log_dir)) {
    ++log_files;
    std::ifstream is(entry.path());
    std::vector<std::string> parse_errors;
    const std::vector<obs::JsonValue> records =
        obs::parse_jsonl(is, &parse_errors);
    EXPECT_TRUE(parse_errors.empty());
    for (const obs::JsonValue& record : records) {
      const std::vector<std::string> violations =
          obs::validate_log_record(record);
      EXPECT_TRUE(violations.empty())
          << entry.path() << ": " << violations.front();
      if (record.str_or("type", "") == "cancelled") {
        found_cancelled = true;
        EXPECT_NE(record.find("where"), nullptr);
        EXPECT_EQ(record.str_or("reason", ""), "deadline");
      }
    }
  }
  EXPECT_EQ(log_files, 1);
  EXPECT_TRUE(found_cancelled);
  std::filesystem::remove_all(log_dir);
}

TEST(CancelToken, CancellationDoesNotPerturbSurvivingRequests) {
  const CellLibrary lib = make_nangate45_like();
  const ComponentSpec survivor_spec{ComponentKind::adder, 6, 0,
                                    AdderArch::ripple, MultArch::array};
  const std::string log_a = temp_path("aapx_cancel_survivor_a.jsonl");
  const std::string log_b = temp_path("aapx_cancel_survivor_b.jsonl");

  // Run A: a neighbouring request on the same store gets cancelled first,
  // then the survivor runs with its own log.
  {
    obs::RunLog log;
    ASSERT_TRUE(log.open(log_a));
    Context::Options opt;
    opt.threads = 1;
    opt.runlog = &log;
    const Context ctx(opt);
    CancelToken token;
    token.cancel();
    Context::Options cancelled_opt;
    cancelled_opt.threads = 1;
    cancelled_opt.shared_store = &ctx.store();
    cancelled_opt.cancel = &token;
    const Context cancelled_ctx(cancelled_opt);
    const ComponentSpec doomed{ComponentKind::adder, 12, 0, AdderArch::cla4,
                               MultArch::array};
    EXPECT_THROW(run_characterize(cancelled_ctx, lib, doomed),
                 CancelledError);
    run_characterize(ctx, lib, survivor_spec);
    log.close();
  }
  // Run B: the reference — same survivor, fresh store, no cancellation
  // anywhere in sight.
  {
    obs::RunLog log;
    ASSERT_TRUE(log.open(log_b));
    Context::Options opt;
    opt.threads = 1;
    opt.runlog = &log;
    const Context ctx(opt);
    run_characterize(ctx, lib, survivor_spec);
    log.close();
  }
  EXPECT_EQ(slurp(log_a), slurp(log_b))
      << "survivor's run log perturbed by a neighbouring cancellation";
  std::filesystem::remove(log_a);
  std::filesystem::remove(log_b);
}

}  // namespace
}  // namespace aapx::service
