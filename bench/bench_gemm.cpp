// Kernel-backend microbenchmark + the PR's acceptance recorder.
//
// Times the f32 GEMM of every registered float backend (scalar vs simd)
// and the int8 qgemm across square (64..512) and conv-shaped (skinny-K,
// wide-N) problems, single-threaded so the numbers are kernel quality, not
// core count. Then compiles an ALF-deployed ResNet-20 twice — float and
// backend="int8" — replays a 256-image synthetic batch through both, and
// records the top-1 agreement plus the measured int8/f32 engine ratio.
// Finally the measured ratio is wired next to the hwmodel's energy tables:
// the same ResNet-20 conv stack mapped on the Eyeriss model at 16-bit and
// int8 word widths (hwmodel/arch.hpp scaled_to_bits).
//
// Acceptance criteria recorded in BENCH_gemm.json:
//   - gemm/256x256x256/simd: extra.speedup_vs_scalar >= 2
//   - engine/resnet20_alf/int8: accuracy (top-1 agreement vs float) >= 0.99
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "engine/exec_context.hpp"
#include "hwmodel/mapper.hpp"
#include "kernels/backend.hpp"
#include "quant/quantize.hpp"
#include "tune/tuner.hpp"

using namespace alf;
using namespace alf::bench;

namespace {

/// Best-of-reps wall milliseconds.
template <typename Fn>
double time_ms(size_t reps, Fn&& fn) {
  double best = 1e30;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct Problem {
  const char* tag;
  size_t m, k, n;
};

/// Human-readable tag of one tuner candidate, e.g.
/// "im2col/simd/t64x256x256/c1" — what the "winner" column reports.
std::string describe_choice(const AlgoChoice& c) {
  std::string out;
  switch (c.strategy) {
    case AlgoChoice::Strategy::kAuto: out = "auto"; break;
    case AlgoChoice::Strategy::kShiftGemm: out = "shift"; break;
    case AlgoChoice::Strategy::kIm2col: out = "im2col"; break;
  }
  out += "/" + (c.backend.empty() ? std::string("default") : c.backend);
  if (!c.tile.is_default()) {
    char t[40];
    std::snprintf(t, sizeof(t), "/t%ux%ux%u", c.tile.mc, c.tile.kc,
                  c.tile.nc);
    out += t;
  }
  if (c.chunk != 0) out += "/c" + std::to_string(c.chunk);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --list-backends: registered backend names, one per line (lets CI loop
  // test_kernels over every backend via ALF_BACKEND without hardcoding the
  // list).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-backends") == 0) {
      for (const auto& name : kernels::backend_names())
        std::printf("%s\n", name.c_str());
      return 0;
    }
  }
  const Scale s = parse_scale(argc, argv);
  std::string json_path = parse_json_path(argc, argv);
  if (json_path.empty()) json_path = "BENCH_gemm.json";
  const bool quick = std::strcmp(s.name, "quick") == 0;
  const size_t reps = quick ? 3 : 7;

  std::printf("Kernel backends: f32 GEMM + int8 qgemm (scale=%s)\n\n",
              s.name);
  std::printf("registered backends:");
  for (const auto& name : kernels::backend_names())
    std::printf(" %s", name.c_str());
  std::printf("\ncpu features: detected [%s], allowed [%s]\n",
              kernels::cpu_feature_names(kernels::detected_cpu_features())
                  .c_str(),
              kernels::cpu_feature_names(kernels::allowed_cpu_features())
                  .c_str());
  std::printf("dispatch: default=%s best_quantized=%s\n\n",
              kernels::default_backend()->name,
              kernels::best_quantized_backend()->name);

  BenchJson json("bench_gemm", s.name);
  Rng rng(61);

  // Stamp the machine and the dispatch decisions into the record: a perf
  // trajectory across PRs is only comparable when the ISA the kernels ran
  // on rides along with the numbers.
  {
    BenchRow& meta = json.row("meta/kernel_dispatch");
    meta.extra_str["cpu_detected"] =
        kernels::cpu_feature_names(kernels::detected_cpu_features());
    meta.extra_str["cpu_allowed"] =
        kernels::cpu_feature_names(kernels::allowed_cpu_features());
    meta.extra_str["default_backend"] = kernels::default_backend()->name;
    meta.extra_str["best_quantized_backend"] =
        kernels::best_quantized_backend()->name;
  }

  // --- 1. Raw GEMM problems, single-threaded. -----------------------------
  std::vector<Problem> problems = {
      {"64x64x64", 64, 64, 64},
      {"128x128x128", 128, 128, 128},
      {"256x256x256", 256, 256, 256},
      {"512x512x512", 512, 512, 512},
      // conv1 of the CIFAR stack: few filters over a long unfolded image.
      {"skinnyK-16x27x1024", 16, 27, 1024},
      // wide mid-stack conv: one chunk-batched im2col GEMM at batch 4.
      {"wideN-64x576x4096", 64, 576, 4096},
  };
  if (quick) problems.pop_back();  // keep CI smoke fast

  const kernels::KernelBackend* scalar = kernels::find_backend("scalar");
  const kernels::KernelBackend* simd = kernels::find_backend("simd");
  const kernels::KernelBackend* int8 = kernels::find_backend("int8");

  Table table("f32 GEMM + int8 qgemm, single thread (best of reps)");
  table.set_header(
      {"problem", "backend", "wall[ms]", "G madds/s", "vs scalar"});
  set_parallel_threads(1);
  double simd_speedup_256 = 0.0;

  for (const Problem& p : problems) {
    Tensor a = random_input({p.m, p.k}, rng);
    Tensor b = random_input({p.k, p.n}, rng);
    Tensor c({p.m, p.n});
    const double gmadds = static_cast<double>(p.m) * p.k * p.n / 1e9;
    // Small problems finish in microseconds, where scheduler noise swamps
    // a best-of-3: take the min over many more runs so the recorded number
    // is the kernel, not the jitter.
    const bool small = p.m * p.k * p.n <= size_t{256} * 256 * 256;
    const size_t preps = small ? reps * 8 : reps;

    const auto bench_f32 = [&](const kernels::KernelBackend* be) {
      return time_ms(preps, [&] {
        be->gemm(a.data(), p.k, false, b.data(), p.n, false, c.data(), p.n,
                 p.m, p.k, p.n, 1.0f, 0.0f);
      });
    };
    const double scalar_ms = bench_f32(scalar);

    const PackedInt8 qa = quantize_tensor(a, 8);
    const PackedInt8 qb = quantize_tensor(b, 8);
    kernels::QgemmParams qp;
    qp.a_scale = qa.params.scale;
    qp.b_scale = qb.params.scale;
    const auto bench_q8 = [&](const kernels::KernelBackend* be) {
      return time_ms(preps, [&] {
        be->qgemm(qa.data.data(), p.k, qb.data.data(), p.n, c.data(), p.n,
                  p.m, p.k, p.n, qp);
      });
    };

    struct Entry {
      const char* backend;
      double ms;
    };
    std::vector<Entry> entries = {{"scalar", scalar_ms}};
    if (simd != nullptr) entries.push_back({"simd", bench_f32(simd)});
    entries.push_back({"int8", bench_q8(int8)});
    // The ISA-specific qgemm backends, when this host registered them —
    // their rows make regressions attributable to one kernel rather than
    // to whatever "int8" happened to dispatch to.
    for (const char* qname : {"int8-avx2", "int8-vnni"}) {
      const kernels::KernelBackend* qbe = kernels::find_backend(qname);
      if (qbe != nullptr) entries.push_back({qname, bench_q8(qbe)});
    }

    for (const Entry& e : entries) {
      const double speedup = scalar_ms / e.ms;
      if (std::strcmp(p.tag, "256x256x256") == 0 &&
          std::strcmp(e.backend, "simd") == 0)
        simd_speedup_256 = speedup;
      table.add_row({p.tag, e.backend, Table::fmt(e.ms, 3),
                     Table::fmt(gmadds / (e.ms / 1e3), 2),
                     Table::fmt(speedup, 2)});
      char row_name[64];
      std::snprintf(row_name, sizeof(row_name), "gemm/%s/%s", p.tag,
                    e.backend);
      BenchRow& row = json.row(row_name);
      row.wall_ms = e.ms;
      row.gmadds_per_s = gmadds / (e.ms / 1e3);
      row.extra["speedup_vs_scalar"] = speedup;
    }
  }
  set_parallel_threads(0);
  table.print();

  // --- 1b. Per-shape autotuner: tuned choice vs heuristic per conv shape. --
  // The tuner's own microbenchmark (tune::measure_choice — forced
  // single-layer compile + min-of-K forward passes) over the conv shapes
  // the CIFAR zoo actually executes at this scale. The heuristic row is
  // candidate 0 by construction; challengers must beat it by >3% to win,
  // so tuned >= heuristic holds for every row.
  {
    struct ConvShape {
      const char* tag;
      size_t c, hw, k, stride, pad, o;
      bool quant;
    };
    const size_t w = s.width;
    const std::vector<ConvShape> shapes = {
        {"conv3x3_in", 3, s.hw, 3, 1, 1, w, false},  // RGB stem conv
        {"conv3x3_stage1", w, s.hw, 3, 1, 1, w, false},
        {"conv3x3_down", w, s.hw, 3, 2, 1, 2 * w, false},
        {"conv1x1_skip", w, s.hw, 1, 2, 0, 2 * w, false},
        {"conv3x3_stage2", 2 * w, s.hw / 2, 3, 1, 1, 2 * w, false},
        {"conv3x3_stage2_q8", 2 * w, s.hw / 2, 3, 1, 1, 2 * w, true},
    };
    tune::set_reps(quick ? 2 : 5);
    Table ttab("autotuner: tuned vs heuristic per conv shape (batch 32)");
    ttab.set_header(
        {"shape", "heuristic[ms]", "tuned[ms]", "speedup", "winner"});
    for (const ConvShape& cs : shapes) {
      tune::TuneShape ts;
      ts.is_conv = true;
      ts.geom = ConvGeom{cs.c, cs.hw, cs.hw, cs.k, cs.stride, cs.pad};
      ts.out_c = cs.o;
      ts.quantized = cs.quant;
      ts.qbits = 8;
      ts.batch = 32;
      ts.chunks = std::min<size_t>(
          32, static_cast<size_t>(std::max(1, parallel_threads())));
      ts.plan_backend = cs.quant ? "int8" : "";
      const std::vector<AlgoChoice> cands = tune::candidates(ts);
      const double heur_ms = tune::measure_choice(ts, cands[0]);
      double best_ms = heur_ms;
      AlgoChoice best = cands[0];
      for (size_t ci = 1; ci < cands.size(); ++ci) {
        const double ms = tune::measure_choice(ts, cands[ci]);
        if (ms < best_ms * 0.97) {
          best_ms = ms;
          best = cands[ci];
        }
      }
      const std::string winner =
          best_ms == heur_ms ? "heuristic" : describe_choice(best);
      ttab.add_row({cs.tag, Table::fmt(heur_ms, 3), Table::fmt(best_ms, 3),
                    Table::fmt(heur_ms / best_ms, 2), winner});
      char row_name[96];
      std::snprintf(row_name, sizeof(row_name), "tune/%s", cs.tag);
      BenchRow& row = json.row(row_name);
      row.wall_ms = best_ms;
      row.extra["heuristic_ms"] = heur_ms;
      row.extra["speedup_vs_heuristic"] = heur_ms / best_ms;
      row.extra["candidates"] = static_cast<double>(cands.size());
      row.extra_str["winner"] = winner;
    }
    ttab.print();
  }

  // --- 2. ALF-deployed ResNet-20: int8 engine vs float engine. ------------
  // The model is TRAINED (briefly, at bench scale) before comparing: top-1
  // agreement between a quantized and a float net is only meaningful when
  // the logits carry real class structure — an untrained net's argmax is a
  // coin toss between near-tied logits and flips on quantization noise no
  // matter how faithful the int8 path is.
  ModelConfig mc;
  mc.base_width = s.width;
  mc.in_hw = s.hw;
  AlfConfig acfg = alf_config(s);
  std::vector<AlfConv*> blocks;
  auto model = build_resnet20(mc, rng, make_alf_conv_maker(acfg, &rng, &blocks));
  {
    const DataConfig task = cifar_task(s);
    SyntheticImageDataset train_set(task, 512, /*split_seed=*/1);
    SyntheticImageDataset test_set(task, 128, /*split_seed=*/2);
    TrainConfig tc = train_config(s);
    tc.epochs = quick ? 16 : 24;
    const auto hist = Trainer(*model, train_set, test_set, tc).run();
    std::printf("\ntrained ALF ResNet-20 for %zu epochs: test acc %.1f%%, "
                "remaining filters %.0f%%\n",
                tc.epochs, 100.0 * hist.back().test_acc,
                100.0 * hist.back().remaining_filters);
  }

  const size_t images = 256;  // the acceptance batch, also under --quick
  const size_t batch = 32;
  SyntheticImageDataset ds(cifar_task(s), images, /*split_seed=*/3);
  Tensor x;
  std::vector<int> labels;
  ds.full_batch(x, labels);

  ExecContext fp(Plan::compile(*model, batch, mc.in_channels, s.hw, s.hw));
  ExecContext q8(Plan::compile(*model, batch, mc.in_channels, s.hw, s.hw,
                               {.backend = "int8", .bits = 8, .name = ""}));
  const size_t img_floats = fp.plan().image_floats();
  const size_t classes = fp.plan().classes();
  Tensor out_fp({images, classes});
  Tensor out_q8({images, classes});
  const auto replay = [&](ExecContext& ctx, Tensor& out) {
    for (size_t i0 = 0; i0 < images; i0 += batch) {
      const size_t n = std::min(batch, images - i0);
      ctx.run_rows(x.data() + i0 * img_floats, n, out.data() + i0 * classes);
    }
  };
  replay(fp, out_fp);  // warm
  const double fp_ms = time_ms(reps, [&] { replay(fp, out_fp); });
  const double q8_ms = time_ms(reps, [&] { replay(q8, out_q8); });

  size_t agree = 0;
  for (size_t i = 0; i < images; ++i) {
    size_t af = 0, aq = 0;
    for (size_t cls = 1; cls < classes; ++cls) {
      if (out_fp.at(i, cls) > out_fp.at(i, af)) af = cls;
      if (out_q8.at(i, cls) > out_q8.at(i, aq)) aq = cls;
    }
    if (af == aq) ++agree;
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(images);
  const double int8_vs_float = fp_ms / q8_ms;

  std::printf("\nALF-deployed ResNet-20, %zu synthetic images, batch %zu:\n",
              images, batch);
  std::printf("  float engine  %.3f ms (%.1f img/s)\n", fp_ms,
              images / (fp_ms / 1e3));
  std::printf("  int8 engine   %.3f ms (%.1f img/s, %.2fx vs float)\n", q8_ms,
              images / (q8_ms / 1e3), int8_vs_float);
  std::printf("  top-1 agreement: %zu/%zu = %.4f (target >= 0.99)\n", agree,
              images, agreement);

  BenchRow& fp_row = json.row("engine/resnet20_alf/float");
  fp_row.wall_ms = fp_ms;
  fp_row.extra["images_per_s"] = images / (fp_ms / 1e3);
  BenchRow& q8_row = json.row("engine/resnet20_alf/int8");
  q8_row.wall_ms = q8_ms;
  q8_row.accuracy = agreement;  // top-1 agreement with the float engine
  q8_row.extra["images_per_s"] = images / (q8_ms / 1e3);
  q8_row.extra["speedup_vs_float"] = int8_vs_float;
  q8_row.extra["bits"] = 8.0;
  q8_row.extra["images"] = static_cast<double>(images);
  q8_row.extra_str["qgemm_backend"] = kernels::best_quantized_backend()->name;

  // --- 3. Measured int8 timing wired into the hwmodel energy tables. ------
  // The same conv stack costed on the Eyeriss model at 16-bit words and at
  // the int8 word width the engine just executed; the measured CPU ratio
  // rides along so the analytic and the measured speedups can be compared
  // per PR.
  const ModelCost cost = cost_resnet20(/*classes=*/10, mc.base_width, s.hw);
  const EyerissConfig fp16_arch;
  const EyerissConfig int8_arch = scaled_to_bits(fp16_arch, 8);
  MapperConfig mcfg;
  mcfg.max_iterations = quick ? 10000 : 50000;
  mcfg.victory = mcfg.max_iterations / 2;
  double e16 = 0.0, e8 = 0.0, cyc16 = 0.0, cyc8 = 0.0;
  for (const LayerEval& ev : map_model(cost, /*batch=*/1, fp16_arch, mcfg)) {
    e16 += ev.energy();
    cyc16 += ev.cycles;
  }
  for (const LayerEval& ev : map_model(cost, /*batch=*/1, int8_arch, mcfg)) {
    e8 += ev.energy();
    cyc8 += ev.cycles;
  }
  std::printf("\nEyeriss model, ResNet-20 conv stack (per image):\n");
  std::printf("  16-bit words: %.3e RF-read units, %.3e cycles\n", e16, cyc16);
  std::printf("  int8 words:   %.3e RF-read units, %.3e cycles "
              "(%.2fx energy, measured CPU int8 ratio %.2fx)\n",
              e8, cyc8, e16 / e8, int8_vs_float);
  BenchRow& hw16 = json.row("hwmodel/resnet20/fp16");
  hw16.extra["energy_rf_units"] = e16;
  hw16.extra["cycles"] = cyc16;
  BenchRow& hw8 = json.row("hwmodel/resnet20/int8");
  hw8.extra["energy_rf_units"] = e8;
  hw8.extra["cycles"] = cyc8;
  hw8.extra["energy_ratio_vs_fp16"] = e16 / e8;
  hw8.extra["measured_cpu_int8_speedup"] = int8_vs_float;

  if (!json.write(json_path)) {
    std::printf("\nFAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (simd != nullptr)
    std::printf("simd speedup at 256^3 single-thread: %.2fx (target 2x)\n",
                simd_speedup_256);
  return 0;
}
