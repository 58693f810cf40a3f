#include "engine/context.hpp"

#include "engine/design_store.hpp"

namespace aapx {

Context::Context() : Context(Options{}) {}

Context::Context(const Options& options)
    : threads_(options.threads > 0 ? options.threads : hardware_threads()),
      seed_(options.seed),
      cancel_(options.cancel) {
  if (options.metrics != nullptr) {
    metrics_ = options.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options.runlog != nullptr) {
    runlog_ = options.runlog;
  } else {
    owned_runlog_ = std::make_unique<obs::RunLog>();
    runlog_ = owned_runlog_.get();
  }
  if (options.tracer != nullptr) {
    tracer_ = options.tracer;
  } else {
    owned_tracer_ = std::make_unique<obs::Tracer>();
    tracer_ = owned_tracer_.get();
  }
  if (options.shared_store != nullptr) {
    // Multi-tenant mode: borrow another Context's store (the server's
    // per-connection Contexts all point at the root store). Its metrics
    // keep reporting into the owning Context.
    store_ = options.shared_store;
  } else {
    // The store is created last: it registers its counters with metrics().
    owned_store_ = std::make_unique<engine::DesignStore>(*this);
    store_ = owned_store_.get();
    if (!options.store_path.empty()) {
      store_->open(options.store_path);
    }
  }
}

Context::~Context() = default;

}  // namespace aapx
