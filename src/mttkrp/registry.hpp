// EngineRegistry: name → MTTKRP engine factory.
//
// Every engine in the library registers here under a stable string name, so
// benchmarks, the CLI, and CP-ALS construct engines by name instead of
// switching over an enum. Factories produce *unprepared* engines bound to a
// KernelContext; callers follow with prepare(tensor, rank) — or use the
// make_engine overload that does both.
//
// The registry is the only way to name an engine. Builtin names
// (registration order):
//   coo, bcoo, alto, csf, csf1, dtree-flat, dtree-3lvl, dtree-bdt, auto,
//   auto+probe
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mttkrp/engine.hpp"

namespace mdcp {

using EngineFactory =
    std::function<std::unique_ptr<MttkrpEngine>(KernelContext)>;

class EngineRegistry {
 public:
  struct Entry {
    std::string name;
    std::string description;
    EngineFactory factory;
  };

  /// The process-wide registry, with all builtin engines pre-registered.
  static EngineRegistry& instance();

  /// Registers a factory. Throws mdcp::error on a duplicate name.
  void register_engine(std::string name, std::string description,
                       EngineFactory factory);

  bool contains(const std::string& name) const;
  /// All registered names, in registration order.
  std::vector<std::string> names() const;
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Creates an unprepared engine. Throws mdcp::error listing the known
  /// names when `name` is not registered.
  std::unique_ptr<MttkrpEngine> create(const std::string& name,
                                       KernelContext ctx = {}) const;

 private:
  EngineRegistry();
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

/// Creates an unprepared engine by name from the global registry.
std::unique_ptr<MttkrpEngine> make_engine(const std::string& name,
                                          KernelContext ctx = {});

/// Creates an engine by name and prepares it for `tensor` (with `rank` as
/// the scratch-sizing hint; required > 0 for "auto"/"auto+probe").
std::unique_ptr<MttkrpEngine> make_engine(const std::string& name,
                                          const CooTensor& tensor,
                                          index_t rank = 0,
                                          KernelContext ctx = {});

}  // namespace mdcp
