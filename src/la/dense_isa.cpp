#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "la/dense_kernels.hpp"
#include "util/error.hpp"

namespace mdcp::dense {

namespace {

constexpr Isa kAll[] = {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512};

const Kernels* table(Isa isa) noexcept {
  switch (isa) {
    case Isa::kBaseline:
      return &kBaselineKernels;
    case Isa::kAvx2:
#if MDCP_DENSE_HAVE_AVX2
      return &kAvx2Kernels;
#else
      return nullptr;
#endif
    case Isa::kAvx512:
#if MDCP_DENSE_HAVE_AVX512
      return &kAvx512Kernels;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

// __builtin_cpu_supports also checks that the OS saves the wider register
// state (XGETBV), so a reported feature is one this process can use.
bool cpu_runs(Isa isa) noexcept {
  if (isa == Isa::kBaseline) return true;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();  // idempotent; needed if called before main
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (isa == Isa::kAvx2) return avx2;
  return avx2 && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

Isa resolve() noexcept {
  Isa best = Isa::kBaseline;
  for (Isa isa : kAll)
    if (isa_supported(isa)) best = isa;
  const char* env = std::getenv("MDCP_ISA");
  if (env == nullptr || *env == '\0') return best;
  for (Isa isa : kAll) {
    if (std::strcmp(env, isa_name(isa)) != 0) continue;
    if (isa_supported(isa)) return isa;
    break;
  }
  std::fprintf(stderr,
               "mdcp: MDCP_ISA=%s is not a dense path this build and CPU "
               "can run; using %s\n",
               env, isa_name(best));
  return best;
}

Isa default_isa() noexcept {
  static const Isa isa = resolve();
  return isa;
}

// -1: no ScopedIsa active.
std::atomic<int> g_forced{-1};

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kBaseline:
      return "baseline";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool isa_supported(Isa isa) noexcept {
  return table(isa) != nullptr && cpu_runs(isa);
}

Isa selected_isa() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  return forced >= 0 ? static_cast<Isa>(forced) : default_isa();
}

const Kernels& kernels() noexcept { return *table(selected_isa()); }

ScopedIsa::ScopedIsa(Isa isa) : saved_(g_forced.load()) {
  MDCP_CHECK_MSG(isa_supported(isa), "dense ISA path not supported here");
  g_forced.store(static_cast<int>(isa));
}

ScopedIsa::~ScopedIsa() { g_forced.store(saved_); }

}  // namespace mdcp::dense
