// Per-layer probes of the traced mode: engine and kernel timings of the
// four served models, measured in process by calling each layer's public
// functions (ExecContext::run_rows, tune::measure_choice, the backends'
// GEMM entry points).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "engine/plan.hpp"
#include "models.hpp"
#include "trace.hpp"

namespace alfbench {

/// Named per-layer values, each with its unit.
struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Engine metrics of one served model: compile and blob-load time, weight
/// bytes, run_rows time at batch 1/8/32, GMAC/s at batch 32, and conv time
/// per stage group (code and expansion convs apart on ALF models). Blobs
/// go to `dir`.
void probe_engine(const std::string& model, const alf::Sequential& tree,
                  bool int8, const std::string& dir, const ImagePool& pool,
                  Trace& trace, Metrics& out);

/// GMAC/s of one 256^3 GEMM on `backend` (float gemm, or qgemm when the
/// backend is a quantized datapath); median of repeated calls.
double gemm_peak_gmacs(const alf::kernels::KernelBackend* backend);

/// Median of `v` (nearest rank) and the highest percentile, at most p99,
/// with at least ten samples beyond it. Both 0 for an empty sample.
double median(std::vector<double> v);
double tail(std::vector<double> v, double* pct = nullptr);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);
/// Tail of a series in time order: cut into consecutive windows of at
/// least kTailWindow samples (one window when shorter), tail() of each,
/// median across windows. One burst moves one window, not the result.
constexpr size_t kTailWindow = 1000;
double windowed_tail(const std::vector<double>& v, double* pct = nullptr);

}  // namespace alfbench
