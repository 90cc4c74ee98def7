#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "engine/exec_context.hpp"
#include "engine/plan_io.hpp"
#include "kernels/backend.hpp"
#include "tune/tuner.hpp"

namespace alfbench {

using namespace alf;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Stage group of a conv step, from the layer names of the ResNet-20
/// builder: conv1 = stem, conv2xy/conv3xy/conv4xy = s1/s2/s3, *_proj =
/// projection shortcuts; ALF steps carry a .code / .exp suffix.
std::string conv_group(const std::string& step_name) {
  const std::string base = step_name.substr(0, step_name.find('+'));
  std::string g;
  if (base.find("_proj") != std::string::npos) return "proj";
  if (base.rfind("conv1", 0) == 0 && (base.size() == 5 || base[5] == '_'))
    g = "stem";
  else if (base.size() > 4)
    g = std::string("s") + static_cast<char>(base[4] - 1);
  if (base.find("_code") != std::string::npos) g += ".code";
  if (base.find("_exp") != std::string::npos) g += ".exp";
  return g;
}

/// Median wall time of `reps` run_rows calls at batch `n` on pool images.
double time_run_rows(ExecContext& ctx, size_t n, int reps,
                     const ImagePool& pool, Trace& trace, uint64_t req) {
  std::vector<float> x(n * kImageFloats);
  for (size_t i = 0; i < n; ++i)
    std::copy(pool.image(i % pool.n), pool.image(i % pool.n) + kImageFloats,
              x.data() + i * kImageFloats);
  std::vector<float> out(n * ctx.plan().classes());
  ctx.run_rows(x.data(), n, out.data());  // warm-up
  std::vector<double> ms;
  std::vector<Span> spans;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    ctx.run_rows(x.data(), n, out.data());
    const Clock::time_point t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    trace.span(spans, "engine.run_rows", kSpanRun, SpanKind{0},
               req + static_cast<uint64_t>(r), t0, t1);
  }
  trace.merge(spans);
  return median(ms);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double tail(std::vector<double> v, double* pct) {
  const double n = static_cast<double>(v.size());
  const double p = n > 0 ? std::clamp(1.0 - 10.0 / n, 0.5, 0.99) : 0.99;
  if (pct != nullptr) *pct = 100.0 * p;
  return percentile(std::move(v), p);
}

double windowed_tail(const std::vector<double>& v, double* pct) {
  const size_t windows = std::max<size_t>(1, v.size() / kTailWindow);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * v.size() / windows, hi = (w + 1) * v.size() / windows;
    tails.push_back(tail(std::vector<double>(v.begin() + lo, v.begin() + hi),
                         pct));
  }
  return median(tails);
}

void probe_engine(const std::string& model, const Sequential& tree, bool int8,
                  const std::string& dir, const ImagePool& pool, Trace& trace,
                  Metrics& out) {
  const std::string key = "." + model;
  Clock::time_point t0 = Clock::now();
  auto compiled = compile_plan(tree, int8, model);
  out["engine.compile_ms" + key] = {ms_since(t0), "ms"};
  const std::string blob = dir + "/" + model + ".plan";
  plan::save(*compiled, blob);
  t0 = Clock::now();
  auto plan = plan::load(blob);
  out["engine.plan_load_ms" + key] = {ms_since(t0), "ms"};
  out["engine.weight_bytes" + key] = {
      static_cast<double>(plan->weight_arena().bytes()), "B"};

  ExecContext ctx(plan);
  const uint64_t req = 2ull << 40;
  const double b1 = time_run_rows(ctx, 1, 15, pool, trace, req);
  const double b8 = time_run_rows(ctx, 8, 7, pool, trace, req + 100);
  const double b32 = time_run_rows(ctx, kBatch, 5, pool, trace, req + 200);
  out["engine.run_ms" + key + ".b1"] = {b1, "ms"};
  out["engine.run_ms" + key + ".b8"] = {b8, "ms"};
  out["engine.run_ms" + key + ".b32"] = {b32, "ms"};
  const double gmacs = macs_per_image(*plan) * kBatch / (b32 * 1e6);
  out["engine.gmacs" + key + ".b32"] = {gmacs, "GMAC/s"};
  const double peak = gemm_peak_gmacs(plan->backend());
  out["kernels.peak_frac" + key + ".b32"] = {gmacs / peak, "frac"};

  // Each conv step alone, through the tuner's own measurement path with
  // the step's compiled choice (measure_choice runs min(batch, 8) images).
  std::map<std::string, double> group_ms;
  for (const Step& st : plan->steps()) {
    if (st.kind != OpKind::kConv) continue;
    tune::TuneShape shape;
    shape.is_conv = true;
    shape.geom = st.geom;
    shape.out_c = st.out_c;
    shape.quantized = st.quantized;
    shape.qbits = st.quantized ? st.qbits : 0;
    shape.in_nonneg = st.in_nonneg;
    shape.batch = 8;
    shape.chunks = plan->step_chunks(st);
    shape.plan_backend = plan->backend_name();
    AlgoChoice choice;
    choice.strategy = st.shift_gemm ? AlgoChoice::Strategy::kShiftGemm
                                    : AlgoChoice::Strategy::kIm2col;
    choice.backend = st.be != nullptr ? st.be->name : "";
    choice.tile = st.tile;
    choice.chunk = st.chunk;
    group_ms[conv_group(st.name)] += tune::measure_choice(shape, choice);
  }
  for (const auto& [group, ms] : group_ms)
    out["engine.conv_ms" + key + "." + group] = {ms, "ms"};
}

double gemm_peak_gmacs(const kernels::KernelBackend* be) {
  constexpr size_t n = 256;
  std::vector<double> ms;
  if (be->quantized_datapath) {
    std::vector<int8_t> a(n * n), b(n * n);
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<int8_t>(static_cast<int>(i * 7 % 255) - 127);
      b[i] = static_cast<int8_t>(static_cast<int>(i * 13 % 255) - 127);
    }
    std::vector<float> c(n * n);
    kernels::QgemmParams p;
    for (int r = 0; r < 41; ++r) {
      const Clock::time_point t0 = Clock::now();
      be->qgemm(a.data(), n, b.data(), n, c.data(), n, n, n, n, p);
      if (r > 0) ms.push_back(ms_since(t0));
    }
  } else {
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(i % 17) * 0.01f;
      b[i] = static_cast<float>(i % 13) * 0.01f;
    }
    for (int r = 0; r < 41; ++r) {
      const Clock::time_point t0 = Clock::now();
      be->gemm(a.data(), n, false, b.data(), n, false, c.data(), n, n, n, n,
               1.0f, 0.0f);
      if (r > 0) ms.push_back(ms_since(t0));
    }
  }
  return static_cast<double>(n * n * n) / (median(ms) * 1e6);
}

}  // namespace alfbench
