// Crash-consistency torture for DesignStore::save (ISSUE 6 satellite):
// SIGKILL a child mid-save repeatedly and require the store file to always
// reopen — old content or new content, never a rejected or torn file. The
// atomic temp-file-plus-rename write is the mechanism under test; the
// stale-*.tmp cleanup on DesignStore::open is asserted alongside.
//
// The child is this very test binary re-exec'ed with a gtest filter that
// selects only the (normally disabled) save-loop test — fork+exec, never a
// bare fork, so the pattern stays sanitizer- and thread-safe.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "cell/library.hpp"
#include "core/characterizer.hpp"
#include "engine/context.hpp"
#include "engine/design_store.hpp"
#include "engine/persist.hpp"
#include "synth/components.hpp"

namespace aapx {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The surface the child warms and the parent's reopen queries: a 4-bit
/// ripple adder swept through the characterizer, which routes it through
/// the Context's store (surfaces are the record kind a store file holds).
void characterize_adder4(const Context& ctx, const CellLibrary& lib) {
  CharacterizerOptions copt;
  copt.min_precision = 2;
  const ComponentCharacterizer ch(ctx, lib, AgingModel{}, copt);
  ch.characterize(
      {ComponentKind::adder, 4, 0, AdderArch::ripple, MultArch::array},
      {{StressMode::worst, 10.0}});
}

/// Child body: warm a small store, then save it to $AAPX_TORTURE_STORE in a
/// tight loop until SIGKILLed (bounded so an orphan can't run forever).
/// DISABLED_ so it never runs as part of the normal suite — the parent test
/// below opts it in explicitly via --gtest_also_run_disabled_tests.
TEST(StoreTorture, DISABLED_SaveLoopChild) {
  const char* path = std::getenv("AAPX_TORTURE_STORE");
  ASSERT_NE(path, nullptr);
  Context::Options opt;
  opt.threads = 1;
  const Context ctx(opt);
  const CellLibrary lib = make_nangate45_like();
  characterize_adder4(ctx, lib);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < until) {
    ctx.store().save(path);
  }
}

TEST(StoreTorture, SigkillMidSaveAlwaysReopens) {
  const std::string store = temp_path("aapx_store_torture.aapx");
  std::filesystem::remove(store);
  std::filesystem::remove(store + ".tmp");

  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(n, 0);
  self[n] = '\0';
  const std::string env_store = "AAPX_TORTURE_STORE=" + store;
  const CellLibrary lib = make_nangate45_like();

  int rounds_with_file = 0;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: exec immediately; only async-signal-safe calls before it.
      const char* argv[] = {
          self, "--gtest_filter=StoreTorture.DISABLED_SaveLoopChild",
          "--gtest_also_run_disabled_tests", nullptr};
      const char* envp[] = {env_store.c_str(), nullptr};
      ::execve(self, const_cast<char* const*>(argv),
               const_cast<char* const*>(envp));
      ::_exit(127);
    }
    // Rounds 0-1 kill blind and early (startup / first build); the rest
    // wait until the child's first save has landed, then kill with a
    // per-round skew so the SIGKILL hits a different phase of the
    // write-temp-then-rename cycle each time. Waiting for the file (rather
    // than guessing startup time) keeps the schedule meaningful under
    // sanitizer slowdowns.
    if (round < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20 + 60 * round));
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(25);
      while (!std::filesystem::exists(store) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + 7 * round));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    // The invariant: whatever instant the kill hit, the store file is
    // either absent or fully consistent — never a torn header or record.
    const engine::StoreFileData data = engine::load_store_file(store);
    if (!data.file_found) continue;
    ++rounds_with_file;
    EXPECT_TRUE(data.header_ok)
        << "round " << round << ": header rejected after SIGKILL mid-save";
    EXPECT_EQ(data.records_dropped, 0u)
        << "round " << round << ": torn records after SIGKILL mid-save";
    EXPECT_FALSE(data.records.empty()) << "round " << round;
    // And the higher-level reopen serves the child's records: a query the
    // child warmed must come back as a persist hit, not a recomputation.
    Context::Options opt;
    opt.threads = 1;
    opt.store_path = store;
    const Context reopened(opt);
    characterize_adder4(reopened, lib);
    EXPECT_GE(reopened.store().stats().persist_hits, 1u)
        << "round " << round;
  }
  // The later (slower) rounds must have reached the save loop, otherwise
  // this test never exercised the window it exists for.
  EXPECT_GE(rounds_with_file, 1) << "no round survived long enough to save";
  std::filesystem::remove(store);
  std::filesystem::remove(store + ".tmp");
}

TEST(StoreTorture, StaleTmpCleanedOnOpen) {
  const std::string store = temp_path("aapx_store_stale_tmp.aapx");
  std::filesystem::remove(store);
  // A valid (empty) store plus a stale temp file a crashed writer left.
  {
    Context::Options opt;
    opt.threads = 1;
    const Context ctx(opt);
    ASSERT_TRUE(ctx.store().save(store));
  }
  {
    std::ofstream tmp(store + ".tmp", std::ios::binary);
    tmp << "half-written garbage from a dead process";
  }
  ASSERT_TRUE(std::filesystem::exists(store + ".tmp"));
  Context::Options opt;
  opt.threads = 1;
  opt.store_path = store;
  const Context ctx(opt);
  EXPECT_FALSE(std::filesystem::exists(store + ".tmp"))
      << "DesignStore::open left a stale .tmp behind";
  std::filesystem::remove(store);
}

}  // namespace
}  // namespace aapx
