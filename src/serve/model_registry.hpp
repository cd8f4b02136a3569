// ModelRegistry: multi-model residency for the serving front-end.
//
// Each registered model is a named Loader — a factory that compiles a
// CompiledNetwork from given CompileOptions (typically a thin wrapper
// around CompiledNetwork::from_checkpoint). The registry materialises a
// model lazily on first acquire() into a ServedModel (the plan plus its
// own BatchExecutor) and keeps it resident until the memory budgeter
// pushes it out.
//
// Budgeter: Plan::stored_bytes() of every resident plan is summed
// against mem_budget_bytes. When an acquire() pushes the total over
// budget, the registry walks resident models coldest-first (LRU by
// acquire tick, never the model just acquired) and first *requantises*
// a model still storing fp32 sparse planes — reloads it with
// weight_precision = int8, usually a 4x shrink of the value planes —
// and only evicts outright (drops the ServedModel) once requantising
// is exhausted or insufficient. Eviction is safe mid-flight: callers
// hold a shared_ptr<ServedModel>, so in-flight requests finish on the
// old instance while the registry forgets it; the next acquire()
// reloads from the Loader. When later evictions/requantisations free
// enough headroom, the next acquire() of a requantised model restores
// it to its registered precision (conservatively: only when the fp32
// reload fits without squeezing anyone else, so two hot models can
// never requantise-thrash each other).
//
// Locking: the registry mutex covers only the bookkeeping. Compilation
// (initial load, requantise, restore) runs OUTSIDE the lock behind a
// per-entry `loading` flag — one cold load must not stall requests to
// every other resident model, and concurrent acquires of the same cold
// model wait on a condvar instead of compiling it twice.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/batch_executor.hpp"
#include "runtime/compiled_network.hpp"

namespace ndsnn::serve {

/// A resident model: the immutable compiled plan plus the executor
/// serving it. Holders keep it alive across registry eviction.
class ServedModel {
 public:
  ServedModel(runtime::CompiledNetwork net, int64_t num_threads,
              const runtime::ExecutorOptions& opts)
      : net_(std::move(net)), exec_(net_, num_threads, opts) {}

  [[nodiscard]] const runtime::CompiledNetwork& plan() const { return net_; }
  [[nodiscard]] runtime::BatchExecutor& executor() { return exec_; }

 private:
  runtime::CompiledNetwork net_;  // must outlive exec_ (declared first)
  runtime::BatchExecutor exec_;
};

struct RegistryOptions {
  /// Total Plan::stored_bytes() budget across resident models;
  /// 0 = unlimited (nothing is ever requantised or evicted).
  int64_t mem_budget_bytes = 0;
  /// Request workers of each model's BatchExecutor.
  int64_t executor_threads = 1;
  /// Scheduling options for each model's BatchExecutor.
  runtime::ExecutorOptions executor;
};

class ModelRegistry {
 public:
  /// Compiles (or recompiles) the model; the registry passes the
  /// CompileOptions it wants — in particular weight_precision when
  /// requantising a cold model to int8.
  using Loader = std::function<runtime::CompiledNetwork(const runtime::CompileOptions&)>;

  explicit ModelRegistry(const RegistryOptions& opts = {}) : opts_(opts) {}

  /// Register a model under `name`. `base` is the loader's baseline
  /// CompileOptions; the budgeter only ever changes weight_precision.
  /// Throws std::invalid_argument on a duplicate name.
  void add(const std::string& name, Loader loader,
           const runtime::CompileOptions& base = {});

  /// Fetch a model, loading it if it is not resident (restoring its
  /// registered precision first when the budget has headroom for it),
  /// then enforce the memory budget against every *other* resident
  /// model. Compilation happens outside the registry lock, so requests
  /// to other models never stall behind a cold load. Throws
  /// std::out_of_range for unknown names.
  [[nodiscard]] std::shared_ptr<ServedModel> acquire(const std::string& name);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] bool resident(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Sum of stored_bytes() over resident models.
  [[nodiscard]] int64_t resident_bytes() const;
  /// Models dropped from residency by the budgeter (all-time).
  [[nodiscard]] int64_t evictions() const;
  /// Models reloaded at int8 by the budgeter (all-time).
  [[nodiscard]] int64_t requantisations() const;
  /// Loader invocations, initial loads and requantisations included.
  [[nodiscard]] int64_t loads() const;

 private:
  struct Entry {
    Loader loader;
    runtime::CompileOptions base;  ///< as registered (the restore target)
    runtime::CompileOptions opts;  ///< current (precision may be downgraded)
    std::shared_ptr<ServedModel> model;  ///< null when not resident
    uint64_t last_used = 0;              ///< LRU tick of the last acquire
    bool requantised = false;
    /// stored_bytes() at base precision, recorded on the first full-
    /// precision load; lets the restore check size an fp32 reload
    /// without doing it.
    int64_t full_bytes = 0;
    /// A thread is compiling this entry outside the lock; waiters block
    /// on load_cv_ instead of duplicating the load, and the budgeter
    /// skips the entry.
    bool loading = false;
  };

  /// Load (or reload) an entry with its current options. Caller holds
  /// `lk`; the compile itself runs unlocked behind e.loading, and the
  /// lock is re-held on return (and on throw).
  void load_entry(std::unique_lock<std::mutex>& lk, Entry& e);
  /// Requantise/evict cold models until the budget holds (or only
  /// `keep` is left resident). Caller holds `lk`; requantisation
  /// compiles unlocked via load_entry.
  void enforce_budget(std::unique_lock<std::mutex>& lk, const std::string& keep);
  [[nodiscard]] int64_t resident_bytes_locked() const;

  const RegistryOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable load_cv_;  ///< signalled when an entry's load ends
  std::unordered_map<std::string, Entry> entries_;
  uint64_t tick_ = 0;
  int64_t evictions_ = 0;
  int64_t requantisations_ = 0;
  int64_t loads_ = 0;
};

}  // namespace ndsnn::serve
