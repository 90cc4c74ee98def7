// Serving latency: the layer tree vs a direct ExecContext::run vs a
// one-worker ModelServer (src/serve/) vs a two-worker ModelServer, all
// three compiled paths hosting the SAME Plan with one model each.
//
// Compiles ResNet-20 once for the maximum batch, then replays the same
// bursty stream of variable-size requests through all four paths and
// reports nearest-rank latency percentiles (shared percentile() from
// bench_common.hpp) and throughput. The servers run with max_wait_us = 0 —
// a single closed-loop client gains nothing from waiting for batch-mates,
// so the knob is turned all the way toward latency; the `serve` load
// generator exercises the batching and multi-model sides under concurrent
// clients. Note the model is compiled ONCE: the direct context and both
// servers share its immutable Plan — no duplicated weights anywhere.
//
// With --plan <file> the served plan is loaded from an alf_planc blob
// (engine/plan_io.hpp) instead of compiled — load-once/share-everywhere:
// every path hosts the one loaded Plan, and the cold-start cost drops from
// compile work to a checksummed mmap.
//
//   ./serve_latency [--quick|--full] [--requests N] [--plan <file>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/table.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan_io.hpp"
#include "serve/model_server.hpp"

using namespace alf;
using alf::bench::percentile;
using alf::bench::random_input;
using alf::bench::warm_bn;

int main(int argc, char** argv) {
  size_t hw = 16, width = 8, requests = 200;
  std::string plan_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) requests = 40;
    if (std::strcmp(argv[i], "--full") == 0) {
      hw = 32;
      width = 16;
      requests = 400;
    }
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests = static_cast<size_t>(std::max(1L, std::atol(argv[++i])));
    if (std::strcmp(argv[i], "--plan") == 0 && i + 1 < argc)
      plan_path = argv[++i];
  }
  const size_t max_batch = 32;

  Rng rng(23);
  ModelConfig mc;
  mc.base_width = width;
  mc.in_hw = hw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, hw, rng);

  // Request stream: batch sizes mimic a bursty queue (mostly small, some
  // full batches after a backlog).
  std::vector<size_t> sizes(requests);
  for (size_t i = 0; i < requests; ++i) {
    const double u = rng.uniform();
    sizes[i] = u < 0.5 ? 1 + rng.uniform_index(4)
                       : (u < 0.85 ? 8 + rng.uniform_index(8) : max_batch);
  }
  std::vector<Tensor> reqs_by_n(max_batch + 1);
  for (const size_t n : sizes)
    if (reqs_by_n[n].empty())
      reqs_by_n[n] = random_input({n, mc.in_channels, hw, hw}, rng);
  // Compile once — or, with --plan, load the blob once; every serving
  // path below shares this single Plan either way.
  const auto t_cold = std::chrono::steady_clock::now();
  const std::shared_ptr<const Plan> plan =
      plan_path.empty()
          ? Plan::compile(*model, max_batch, mc.in_channels, hw, hw)
          : alf::plan::load(plan_path);
  const double cold_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t_cold)
                             .count();
  if (!plan_path.empty() &&
      (plan->batch() != max_batch || plan->in_h() != hw)) {
    std::fprintf(stderr,
                 "serve_latency: %s was generated at a different scale "
                 "(batch %zu hw %zu); regenerate with alf_planc\n",
                 plan_path.c_str(), plan->batch(), plan->in_h());
    return 1;
  }
  std::printf("%s\n", plan->str().c_str());
  std::printf("cold start (%s): %.2fms\n\n",
              plan_path.empty() ? "Plan::compile"
                                : ("plan::load " + plan_path).c_str(),
              cold_ms);
  // Output tensors preallocated per batch size outside the serving loop —
  // the direct path itself performs no allocations.
  ExecContext ctx(plan);
  std::vector<Tensor> outs(max_batch + 1);
  for (const size_t n : sizes)
    if (outs[n].empty()) outs[n] = Tensor({n, plan->classes()});

  // No recompilation: both servers host the direct context's Plan, one on
  // one worker and one on two.
  ModelServer::ModelConfig model_cfg;
  model_cfg.max_wait_us = 0;  // lone closed-loop client: dispatch at once
  ModelServer::Config two_workers;
  two_workers.workers = 2;
  ModelServer one, two(two_workers);
  for (ModelServer* ms : {&one, &two}) {
    ms->add_model("resnet20", plan, model_cfg);
    ms->start();
  }

  Table table("ResNet-20 serving latency over " + std::to_string(requests) +
              " requests (ms)");
  table.set_header({"path", "p50", "p95", "p99", "p99.9", "images/s"});
  enum Path { kLayers = 0, kDirect = 1, kServer1 = 2, kServer2 = 3 };
  for (const int path : {kLayers, kDirect, kServer1, kServer2}) {
    std::vector<double> lat;
    lat.reserve(requests);
    size_t images = 0;
    const auto t_begin = std::chrono::steady_clock::now();
    for (const size_t n : sizes) {
      const Tensor& req = reqs_by_n[n];
      const auto t0 = std::chrono::steady_clock::now();
      switch (path) {
        case kLayers:
          model->forward(req, false);
          break;
        case kDirect:
          ctx.run(req, outs[n]);
          break;
        case kServer1:
          one.submit("resnet20", req).get();
          break;
        case kServer2:
          two.submit("resnet20", req).get();
          break;
      }
      const auto t1 = std::chrono::steady_clock::now();
      lat.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      images += n;
    }
    const double total_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_begin)
            .count();
    table.add_row({path == kLayers    ? "layer tree"
                   : path == kDirect  ? "ExecContext (direct)"
                   : path == kServer1 ? "ModelServer x1"
                                      : "ModelServer x2",
                   Table::fmt(percentile(lat, 0.50), 3),
                   Table::fmt(percentile(lat, 0.95), 3),
                   Table::fmt(percentile(lat, 0.99), 3),
                   // Nearest-rank p99.9 == p99 until the sample exceeds
                   // ~1000 requests; both are reported so bigger --requests
                   // runs resolve the extra digit.
                   Table::fmt(percentile(lat, 0.999), 3),
                   Table::fmt(static_cast<double>(images) / total_s, 0)});
  }
  one.stop();
  two.stop();
  table.print();
  std::printf(
      "\nThe server rows include queue + dispatch overhead; run the "
      "`serve` load generator for dynamic batching and the multi-model "
      "mix under concurrent clients.\n");
  return 0;
}
