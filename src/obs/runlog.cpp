#include "obs/runlog.hpp"

#ifndef AAPX_BUILD_TYPE
#define AAPX_BUILD_TYPE "unknown"
#endif
#ifndef AAPX_SANITIZE_MODE
#define AAPX_SANITIZE_MODE "OFF"
#endif

namespace aapx::obs {

bool RunLog::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) out_.close();
  out_.open(path, std::ios::trunc);
  const bool ok = static_cast<bool>(out_);
  enabled_.store(ok, std::memory_order_relaxed);
  return ok;
}

void RunLog::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  if (out_.is_open()) out_.close();
}

void RunLog::emit(std::string_view type, const JsonWriter& fields) {
  if (!enabled()) return;
  std::string line = "{\"type\":\"";
  line += json_escape(type);
  line += '"';
  if (!fields.empty()) {
    line += ',';
    line += fields.body();
  }
  line += "}\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) out_ << line;
}

void RunLog::emit(std::string_view type) { emit(type, JsonWriter()); }

void emit_manifest(RunLog& log, const JsonWriter& caller_fields) {
  if (!log.enabled()) return;
  JsonWriter w;
  w.field("schema", kRunLogSchema)
      .field("build_type", AAPX_BUILD_TYPE)
      .field("sanitize", AAPX_SANITIZE_MODE)
#if defined(__VERSION__)
      .field("compiler", __VERSION__);
#else
      .field("compiler", "unknown");
#endif
  w.append(caller_fields);
  log.emit("manifest", w);
}

}  // namespace aapx::obs
