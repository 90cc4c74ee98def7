// Engine vs layer tree — batched inference throughput of the deployment
// path (compile-once plan + workspace arena + fused conv+BN+ReLU kernels)
// against the training-framework Sequential::forward eval walk.
//
// Covers ResNet-20, Plain-20 and an ALF-compressed ResNet-20 (masks pruned
// to the paper's operating point) across batch sizes and thread counts.
// Writes BENCH_engine.json (default; override with --json <path>) so the
// speedup is recorded per-PR. The acceptance bar for the engine refactor is
// >= 1.5x over the layer tree on ResNet-20 at batch 32.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan_io.hpp"
#include "tune/tuner.hpp"

using namespace alf;
using namespace alf::bench;

namespace {

/// Multiply-adds of one image under the compiled plan (conv + linear).
double plan_madds(const Plan& plan) {
  double madds = 0.0;
  for (const Step& st : plan.steps()) {
    if (st.kind == OpKind::kConv)
      madds += static_cast<double>(st.w.dim(0)) * st.w.dim(1) *
               st.geom.col_cols();
    else if (st.kind == OpKind::kLinear)
      madds += static_cast<double>(st.in_features) * st.out_features;
  }
  return madds;
}

/// Best-of-reps wall time in milliseconds for `fn()` (min filters out
/// scheduler noise on shared machines).
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

struct ModelUnderTest {
  const char* name;
  std::unique_ptr<Sequential> model;
};

}  // namespace

int main(int argc, char** argv) {
  const Scale s = parse_scale(argc, argv);
  std::string json_path = parse_json_path(argc, argv);
  if (json_path.empty()) json_path = "BENCH_engine.json";
  const size_t reps = std::strcmp(s.name, "quick") == 0 ? 3 : 7;

  std::printf("Engine vs layer tree (scale=%s, hw=%zu, width=%zu)\n\n",
              s.name, s.hw, s.width);

  Rng rng(17);
  ModelConfig mc;
  mc.base_width = s.width;
  mc.in_hw = s.hw;

  std::vector<ModelUnderTest> models;
  models.push_back(
      {"resnet20", build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng))});
  models.push_back(
      {"plain20", build_plain20(mc, rng, standard_conv_maker(mc.init, &rng))});
  {
    // ALF-compressed ResNet-20: prune ~2/3 of each block's code filters
    // (the paper's Table II operating point) without a training run — the
    // deployed kernels only care about the surviving-filter count.
    AlfConfig acfg;
    std::vector<AlfConv*> blocks;
    auto m = build_resnet20(mc, rng, make_alf_conv_maker(acfg, &rng, &blocks));
    for (AlfConv* b : blocks) {
      Tensor& mask = b->mask();
      for (size_t i = 0; i < mask.numel(); ++i)
        if (i % 3 != 0) mask.at(i) = 0.0f;
    }
    models.push_back({"alf_resnet20", std::move(m)});
  }
  for (auto& mut : models) warm_bn(*mut.model, mc.in_channels, s.hw, rng);

  const int hw_threads = parallel_threads();
  const size_t batches[] = {1, 8, 32};
  std::vector<int> threads = {1};
  if (hw_threads > 1) threads.push_back(hw_threads);

  BenchJson json("bench_engine", s.name);
  // Every engine row below runs the heuristic (untuned) plan; the autotuned
  // comparison carries its own rows. Stamped so a perf trajectory across
  // PRs never mixes tuned and untuned numbers silently.
  json.row("meta/tune").extra_str["tune_mode"] = "heuristic";
  Table table("Engine vs Sequential::forward (eval)");
  table.set_header({"model", "batch", "threads", "layers[ms]", "engine[ms]",
                    "speedup", "engine G madds/s"});

  double resnet_b32_speedup = 0.0;
  for (auto& mut : models) {
    for (const size_t batch : batches) {
      Tensor x = random_input({batch, mc.in_channels, s.hw, s.hw}, rng);
      for (const int t : threads) {
        set_parallel_threads(t);
        ExecContext ctx(
            Plan::compile(*mut.model, batch, mc.in_channels, s.hw, s.hw));
        Tensor out({batch, ctx.plan().classes()});
        // Untimed warmup round for both paths.
        mut.model->forward(x, false);
        ctx.run(x, out);
        const double layers_ms =
            time_ms(reps, [&] { mut.model->forward(x, false); });
        const double engine_ms = time_ms(reps, [&] { ctx.run(x, out); });
        const double speedup = layers_ms / engine_ms;
        const double gmadds = plan_madds(ctx.plan()) *
                              static_cast<double>(batch) / (engine_ms * 1e6);
        if (std::strcmp(mut.name, "resnet20") == 0 && batch == 32 &&
            t == hw_threads)
          resnet_b32_speedup = speedup;

        table.add_row({mut.name, Table::fmt_int(static_cast<long long>(batch)),
                       Table::fmt_int(t), Table::fmt(layers_ms, 3),
                       Table::fmt(engine_ms, 3), Table::fmt(speedup, 2),
                       Table::fmt(gmadds, 2)});
        char row_name[96];
        std::snprintf(row_name, sizeof(row_name), "%s/b%zu/t%d/engine",
                      mut.name, batch, t);
        BenchRow& row = json.row(row_name);
        row.wall_ms = engine_ms;
        row.gmadds_per_s = gmadds;
        row.extra["speedup_vs_layers"] = speedup;
        row.extra["layers_ms"] = layers_ms;
      }
    }
  }
  set_parallel_threads(0);

  // --- Cold start: Plan::compile from the model vs alf::plan::load of a
  // saved blob (the compile-once/deploy-many split). Per zoo model and
  // datapath: the compile cost a deploying process avoids, the load cost
  // it pays instead, and the blob it ships. ---
  namespace fs = std::filesystem;
  Table cold("Cold start: Plan::compile vs plan::load (batch 32)");
  cold.set_header(
      {"model", "dtype", "compile[ms]", "load[ms]", "speedup", "blob[KiB]"});
  const fs::path blob_dir = fs::temp_directory_path() / "alf_bench_plans";
  fs::create_directories(blob_dir);
  for (auto& mut : models) {
    for (const char* backend : {"", "int8"}) {
      const char* dtype = *backend ? "int8" : "f32";
      const auto compile = [&] {
        return Plan::compile(*mut.model, 32, mc.in_channels, s.hw, s.hw,
                             {.backend = backend, .bits = 8,
                              .name = std::string(mut.name)});
      };
      const double compile_ms = time_ms(reps, [&] { compile(); });
      const fs::path file =
          blob_dir / (std::string(mut.name) + "_" + dtype + ".plan");
      plan::save(*compile(), file.string());
      const double blob_kib =
          static_cast<double>(fs::file_size(file)) / 1024.0;
      const double load_ms =
          time_ms(reps, [&] { plan::load(file.string()); });
      cold.add_row({mut.name, dtype, Table::fmt(compile_ms, 2),
                    Table::fmt(load_ms, 2),
                    Table::fmt(compile_ms / load_ms, 1),
                    Table::fmt(blob_kib, 1)});
      char row_name[96];
      std::snprintf(row_name, sizeof(row_name), "cold_start/%s_%s",
                    mut.name, dtype);
      BenchRow& row = json.row(row_name);
      row.wall_ms = load_ms;
      row.extra["compile_ms"] = compile_ms;
      row.extra["plan_load_ms"] = load_ms;
      row.extra["speedup_vs_compile"] = compile_ms / load_ms;
      row.extra["blob_kib"] = blob_kib;
    }
  }
  std::error_code cleanup_ec;
  fs::remove_all(blob_dir, cleanup_ec);
  cold.print();

  // --- Per-shape autotuner (src/tune/): tuned plan vs heuristic plan. ---
  // Per zoo model x datapath at batch 32: compile once with the hand-written
  // predicates, once under TuneMode::kCached (first model pays the
  // microbenchmarks, later ones replay shared shapes), and race the two
  // plans on identical input. The tuner's 3% hysteresis means the tuned
  // plan can only confirm or beat the heuristic, never regress it — the
  // speedup column is the acceptance record.
  Table tuned_tab("Autotuned plan vs heuristic plan (batch 32)");
  tuned_tab.set_header(
      {"model", "dtype", "heuristic[ms]", "tuned[ms]", "speedup"});
  const fs::path cache_file =
      fs::temp_directory_path() / "alf_bench_engine_algo.cache";
  std::error_code tune_ec;
  fs::remove(cache_file, tune_ec);  // cold cache: measure, don't inherit
  tune::set_reps(std::strcmp(s.name, "quick") == 0 ? 2 : 3);
  for (auto& mut : models) {
    Tensor x = random_input({32, mc.in_channels, s.hw, s.hw}, rng);
    for (const char* backend : {"", "int8"}) {
      const char* dtype = *backend ? "int8" : "f32";
      EngineOptions heur_opts;
      heur_opts.backend = backend;
      heur_opts.bits = 8;
      heur_opts.tune = TuneMode::kHeuristic;
      EngineOptions tuned_opts = heur_opts;
      tuned_opts.tune = TuneMode::kCached;
      tuned_opts.algo_cache = cache_file.string();
      ExecContext heur(Plan::compile(*mut.model, 32, mc.in_channels, s.hw,
                                     s.hw, heur_opts));
      ExecContext tuned(Plan::compile(*mut.model, 32, mc.in_channels, s.hw,
                                      s.hw, tuned_opts));
      Tensor out({32, heur.plan().classes()});
      heur.run(x, out);  // warmup both
      tuned.run(x, out);
      const double heur_ms = time_ms(reps, [&] { heur.run(x, out); });
      const double tuned_ms = time_ms(reps, [&] { tuned.run(x, out); });
      tuned_tab.add_row({mut.name, dtype, Table::fmt(heur_ms, 3),
                         Table::fmt(tuned_ms, 3),
                         Table::fmt(heur_ms / tuned_ms, 2)});
      char row_name[96];
      std::snprintf(row_name, sizeof(row_name), "tuned/%s_%s", mut.name,
                    dtype);
      BenchRow& row = json.row(row_name);
      row.wall_ms = tuned_ms;
      row.extra["heuristic_ms"] = heur_ms;
      row.extra["speedup_vs_heuristic"] = heur_ms / tuned_ms;
      row.extra_str["tune_mode"] = "cached";
    }
  }
  fs::remove(cache_file, tune_ec);
  tuned_tab.print();

  table.print();
  if (json.write(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("resnet20 batch-32 speedup at %d threads: %.2fx (target 1.5x)\n",
              hw_threads, resnet_b32_speedup);
  return 0;
}
