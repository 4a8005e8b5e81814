// Roofline ceilings and per-kernel attribution.
//
// Two tiny calibration kernels establish what *this build on this machine*
// can do: a register-parallel multiply-add loop for the compute ceiling and
// a STREAM-style triad for the memory-bandwidth ceiling. The multiply-add
// loop runs on the dense ISA path the process selected (la/dense_kernels.hpp),
// which `isa` names; the triad is compiled with the library's own flags. So
// the ceilings are the honest upper bounds for mdcp kernels (not the
// datasheet peak of the chip).
//
// Attribution combines a kernel's measured seconds, its model/metric flop
// count, and perf-counter-derived bytes (LLC misses x cache line) into
// achieved GFLOP/s, arithmetic intensity, and %-of-ceiling — the roofline
// coordinates that say *why* an engine is slow (memory-bound vs
// compute-bound). Bytes are optional: without LLC counters the bandwidth
// side is reported as unknown rather than guessed.
#pragma once

#include <cstdint>

namespace mdcp::obs {

/// Bytes moved per LLC miss (one cache line on every supported target).
inline constexpr double kCacheLineBytes = 64.0;

/// Machine ceilings measured by calibrate_roofline().
struct RooflineCeilings {
  double fma_gflops = 0;   ///< compute ceiling (multiply-add loop)
  const char* isa = "";    ///< dense ISA path fma_gflops was measured on
  double triad_gbps = 0;   ///< bandwidth ceiling (STREAM triad), GB/s
  int threads = 0;         ///< thread count the calibration ran with
  double calibration_seconds = 0;  ///< wall time spent calibrating

  /// Machine balance: flops per byte at the roofline ridge point.
  double ridge_intensity() const noexcept {
    return triad_gbps > 0 ? fma_gflops / triad_gbps : 0;
  }
};

/// Measures both ceilings with the library's current thread setting.
/// `seconds_budget` bounds the total calibration wall time (split between
/// the two kernels; the best repetition wins, so a short budget only costs
/// precision, not correctness).
RooflineCeilings calibrate_roofline(double seconds_budget = 0.3);

/// One measured kernel execution.
struct RooflineSample {
  double seconds = 0;
  double flops = 0;
  double bytes = -1;  ///< < 0 = unknown (LLC counters unavailable)
};

/// Roofline coordinates for one sample against the machine ceilings.
struct RooflineAttribution {
  double gflops = 0;          ///< achieved compute rate
  double pct_compute = 0;     ///< gflops / ceiling, in percent
  bool has_bytes = false;     ///< bandwidth-side fields below are valid
  double gbps = 0;            ///< achieved memory traffic rate
  double pct_bandwidth = 0;   ///< gbps / ceiling, in percent
  double intensity = 0;       ///< flops / byte
  bool memory_bound = false;  ///< intensity below the ridge point
};

RooflineAttribution attribute_roofline(const RooflineSample& sample,
                                       const RooflineCeilings& ceilings);

}  // namespace mdcp::obs
