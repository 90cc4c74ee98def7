// serve — closed-loop load generator for the batched inference servers.
//
// C client threads replay a bursty request stream (mostly small requests
// back-to-back, occasional think-time gaps) against two serving paths
// under the same offered load:
//
//   engine     : a one-worker ModelServer hosting the float ResNet-20 —
//                mutex/CV queue, dynamic batching up to Plan::batch()
//                images per tick, a single ExecContext::run_rows per
//                dispatch
//   multi-model: one ModelServer hosting the float ResNet-20 AND its int8
//                twin (two shared Plans, per-model queues, weighted
//                scheduling at --weight-f32/--weight-int8, K workers each
//                owning one ExecContext per plan); every request is
//                routed to one of the two models
//
// Reports per-request p50/p95/p99 latency (nearest-rank percentile() from
// bench_common.hpp) — per model on the multi-model path — sustained
// images/s, and the servers' batch-fill counters, which show the dynamic
// batchers aggregating bursts. With --json the record lands in
// BENCH_serve.json (row names deliberately include quoted policy strings —
// the writer must escape them).
//
// With --plan-dir DIR the two served plans are not compiled but loaded
// from DIR/resnet20_{f32,int8}.plan (blobs written by alf_planc at the
// same scale) — the deploy-many half of compile-once/deploy-many. The run
// then also records cold_start/* rows: the plan::load cost actually paid
// vs the Plan::compile cost avoided.
//
// Closed-loop latencies are reported BOTH ways (the coordinated-omission
// fix): service latency (send -> done) and response latency (intended
// send instant -> done, where intended_i = intended_{i-1} + think_i — the
// script's schedule, not the throttled reality). A meta/loop_model row
// flags the loop semantics of every latency row in the artifact.
//
// Unless --no-net, the run also forks three shard processes serving
// resnet20_f32 + resnet20_int8 over the ALFN wire protocol (src/net/):
// one solo port and a 2-process SO_REUSEPORT pair. An open-loop Poisson
// generator (bench/netload.hpp) sweeps offered rates around a measured
// closed-loop capacity probe and emits latency-vs-offered-load rows
// (p50/p95/p99/p99.9 per rate, the knee where p99 exceeds the wire
// deadline budget, and a closed-vs-open-loop p99 divergence row under
// overload). The shards are SIGTERMed afterwards and must drain cleanly.
// With --connect PORT the in-process benches are skipped and the sweep
// drives an already-running external server (e.g. alf_served) instead.
//
//   ./serve [--quick|--full] [--requests N] [--clients N] [--workers N]
//           [--weight-f32 W] [--weight-int8 W] [--plan-dir DIR]
//           [--no-net] [--connect PORT] [--host H] [--deadline-us D]
//           [--json <path>]
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "engine/plan_io.hpp"
#include "kernels/backend.hpp"
#include "net/server.hpp"
#include "netload.hpp"
#include "serve/model_server.hpp"

using namespace alf;
using namespace alf::bench;

namespace {

/// One scripted request of a client's closed loop.
struct PlannedRequest {
  size_t n = 0;            ///< images in the request
  unsigned think_us = 0;   ///< pause before submitting (burst gap)
  bool quant = false;      ///< multi-model path: route to the int8 twin
};

/// Bursty per-client script: ~75% of requests follow the previous one
/// back-to-back (a burst), the rest arrive after a 100-900us gap; request
/// sizes are mostly 1-4 images with an occasional 8-image straggler. Half
/// the stream targets the int8 twin on the multi-model path.
std::vector<std::vector<PlannedRequest>> make_plan(size_t clients,
                                                   size_t per_client,
                                                   Rng& rng) {
  std::vector<std::vector<PlannedRequest>> plan(clients);
  for (auto& reqs : plan) {
    reqs.resize(per_client);
    for (PlannedRequest& r : reqs) {
      const double u = rng.uniform();
      r.n = u < 0.8 ? 1 + rng.uniform_index(4) : 8;
      r.think_us = rng.uniform() < 0.75
                       ? 0
                       : static_cast<unsigned>(100 + rng.uniform_index(800));
      r.quant = rng.uniform() < 0.5;
    }
  }
  return plan;
}

struct LoadResult {
  std::vector<double> latencies_ms;  // service latency (send -> done)
  std::vector<double> response_ms;   // response latency (intended -> done)
  double images_per_s = 0.0;
};

/// Drives the scripted closed loop: each client thread issues its requests
/// in order, pacing itself against the script's intended schedule
/// (intended_i = intended_{i-1} + think_i). `serve_one(x)` must block
/// until the request completes. Two latencies per request: service
/// (actual send -> done, what a closed-loop bench traditionally reports,
/// prone to coordinated omission — a stalled server delays later sends
/// and the stall never lands in the sample) and response (INTENDED send
/// -> done, which charges schedule slippage to the requests that caused
/// it).
template <typename ServeOne>
LoadResult run_load(const std::vector<std::vector<PlannedRequest>>& plan,
                    const std::vector<Tensor>& inputs_by_n,
                    ServeOne&& serve_one) {
  const size_t clients = plan.size();
  std::vector<std::vector<double>> lat(clients), resp(clients);
  size_t images = 0;
  for (const auto& reqs : plan)
    for (const PlannedRequest& r : reqs) images += r.n;

  const auto t_begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      lat[c].reserve(plan[c].size());
      resp[c].reserve(plan[c].size());
      auto intended = t_begin;
      for (const PlannedRequest& r : plan[c]) {
        intended += std::chrono::microseconds(r.think_us);
        if (std::chrono::steady_clock::now() < intended)
          std::this_thread::sleep_until(intended);
        const Tensor& x = inputs_by_n[r.n];
        const auto t0 = std::chrono::steady_clock::now();
        serve_one(x);
        const auto t1 = std::chrono::steady_clock::now();
        lat[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        resp[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - intended).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();

  LoadResult res;
  for (auto& v : lat)
    res.latencies_ms.insert(res.latencies_ms.end(), v.begin(), v.end());
  for (auto& v : resp)
    res.response_ms.insert(res.response_ms.end(), v.begin(), v.end());
  res.images_per_s = static_cast<double>(images) / total_s;
  return res;
}

/// Multi-model flavor of run_load: the same scripted closed loop, but each
/// request routes to the float or int8 model per its plan flag, and
/// latencies are collected per model (index 0 = f32, 1 = int8).
struct MixedResult {
  LoadResult per_model[2];
  double aggregate_images_per_s = 0.0;
};

MixedResult run_mixed_load(const std::vector<std::vector<PlannedRequest>>& plan,
                           const std::vector<Tensor>& inputs_by_n,
                           ModelServer& server, const char* f32_name,
                           const char* int8_name) {
  const size_t clients = plan.size();
  std::vector<std::vector<double>> lat_f(clients), lat_q(clients);
  std::vector<std::vector<double>> resp_f(clients), resp_q(clients);
  size_t images = 0, images_by_model[2] = {0, 0};
  for (const auto& reqs : plan)
    for (const PlannedRequest& r : reqs) {
      images += r.n;
      images_by_model[r.quant ? 1 : 0] += r.n;
    }

  const auto t_begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto intended = t_begin;
      for (const PlannedRequest& r : plan[c]) {
        intended += std::chrono::microseconds(r.think_us);
        if (std::chrono::steady_clock::now() < intended)
          std::this_thread::sleep_until(intended);
        const Tensor& x = inputs_by_n[r.n];
        const auto t0 = std::chrono::steady_clock::now();
        server.submit(r.quant ? int8_name : f32_name, x).get();
        const auto t1 = std::chrono::steady_clock::now();
        (r.quant ? lat_q : lat_f)[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        (r.quant ? resp_q : resp_f)[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - intended).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();

  MixedResult res;
  for (size_t c = 0; c < clients; ++c) {
    res.per_model[0].latencies_ms.insert(res.per_model[0].latencies_ms.end(),
                                         lat_f[c].begin(), lat_f[c].end());
    res.per_model[1].latencies_ms.insert(res.per_model[1].latencies_ms.end(),
                                         lat_q[c].begin(), lat_q[c].end());
    res.per_model[0].response_ms.insert(res.per_model[0].response_ms.end(),
                                        resp_f[c].begin(), resp_f[c].end());
    res.per_model[1].response_ms.insert(res.per_model[1].response_ms.end(),
                                        resp_q[c].begin(), resp_q[c].end());
  }
  for (int m = 0; m < 2; ++m)
    res.per_model[m].images_per_s =
        static_cast<double>(images_by_model[m]) / total_s;
  res.aggregate_images_per_s = static_cast<double>(images) / total_s;
  return res;
}

// --- network shards + open-loop sweep --------------------------------------

const char* kF32 = "resnet20_f32";
const char* kInt8 = "resnet20_int8";

std::atomic<net::NetServer*> g_shard_srv{nullptr};
std::atomic<bool> g_shard_term{false};

void shard_on_term(int) {
  g_shard_term.store(true, std::memory_order_release);
  net::NetServer* s = g_shard_srv.load(std::memory_order_acquire);
  if (s != nullptr) s->request_drain();  // async-signal-safe
}

/// One forked shard process: compiles (or blob-loads) the f32 + int8
/// ResNet-20 pair, serves them on the inherited listening socket, drains
/// on SIGTERM. Exit 0 iff the drain identity held (every accepted request
/// was answered).
int run_net_shard(int listen_fd, const Scale& s, size_t max_batch,
                  uint64_t max_wait_us, const std::string& plan_dir,
                  size_t workers) {
  struct sigaction sa{};
  sa.sa_handler = shard_on_term;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  try {
    ModelConfig mc;
    mc.base_width = s.width;
    mc.in_hw = s.hw;
    std::shared_ptr<const Plan> fplan, qplan;
    if (!plan_dir.empty()) {
      fplan = plan::load(plan_dir + "/resnet20_f32.plan");
      qplan = plan::load(plan_dir + "/resnet20_int8.plan");
    } else {
      Rng rng(17);  // same seed as the parent's model: same weights
      auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
      warm_bn(*model, mc.in_channels, s.hw, rng);
      fplan = Plan::compile(*model, max_batch, mc.in_channels, s.hw, s.hw);
      qplan = Plan::compile(*model, max_batch, mc.in_channels, s.hw, s.hw,
                            {.backend = "int8", .bits = 8, .name = ""});
    }
    ModelServer::Config cfg;
    cfg.workers = workers;
    ModelServer ms(cfg);
    ModelServer::ModelConfig qcfg;
    qcfg.max_wait_us = max_wait_us;
    qcfg.max_queue = 8192;
    ms.add_model(kF32, fplan, qcfg);
    ms.add_model(kInt8, qplan, qcfg);
    ms.start();
    net::NetServer srv(ms, listen_fd);
    g_shard_srv.store(&srv, std::memory_order_release);
    if (g_shard_term.load(std::memory_order_acquire)) srv.request_drain();
    srv.run();
    g_shard_srv.store(nullptr, std::memory_order_release);
    ms.stop();
    const net::NetStats st = srv.stats();
    return st.submitted == st.ok + st.shed + st.orphaned ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve[shard %d]: fatal: %s\n",
                 static_cast<int>(::getpid()), e.what());
    return 1;
  }
}

/// Where the sweep talks to: a solo shard and (optionally) a 2-process
/// SO_REUSEPORT pair, or one external --connect server.
struct NetEndpoints {
  std::string host = "127.0.0.1";
  uint16_t solo_port = 0;
  uint16_t shard_port = 0;  // 0 = no reuseport pair
  bool external = false;
};

/// Open-loop Poisson sweep + knee + closed-vs-open overload divergence.
/// Appends net/* rows to `json`.
void run_net_bench(BenchJson& json, const Scale& s, const NetEndpoints& ep,
                   size_t image_floats, const float* row,
                   uint64_t deadline_us) {
  const bool quick = std::strcmp(s.name, "quick") == 0;
  const auto pct = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : percentile(v, q);
  };
  const auto base = [&](uint16_t port, const char* model) {
    NetLoadConfig c;
    c.port = port;
    c.host = ep.host;
    c.model = model;
    c.image_floats = image_floats;
    c.row = row;
    c.deadline_us = deadline_us;
    return c;
  };

  // Readiness: one generous round trip per model; connections queue in the
  // shard's accept backlog until its plans are compiled/loaded.
  net_warmup(base(ep.solo_port, kF32));
  net_warmup(base(ep.solo_port, kInt8));
  if (ep.shard_port != 0) net_warmup(base(ep.shard_port, kF32));

  // Capacity probe: closed loop, f32, generous budget (probes throughput,
  // must not shed).
  NetLoadConfig probe = base(ep.solo_port, kF32);
  probe.requests = quick ? 200 : 400;
  probe.deadline_us = 30ull * 1000 * 1000;
  const NetLoadResult cap = run_closed_loop(probe);
  const double cap_rps = std::max(cap.achieved_rps, 20.0);
  std::printf(
      "\nnet: closed-loop capacity probe %.0f req/s (p50 %.3fms p99 %.3fms "
      "over %zu requests)\n",
      cap.achieved_rps, pct(cap.latency_ms, 0.50), pct(cap.latency_ms, 0.99),
      cap.sent);
  {
    BenchRow& br = json.row("net/capacity_probe/resnet20_f32");
    br.wall_ms = pct(cap.latency_ms, 0.50);
    br.extra["p99_ms"] = pct(cap.latency_ms, 0.99);
    br.extra["achieved_rps"] = cap.achieved_rps;
    br.extra_str["loop"] = "closed";
  }

  // Offered-rate sweep, capacity-relative so the artifact is stable across
  // machines; the top rate deliberately exceeds capacity.
  const std::vector<double> mults =
      quick ? std::vector<double>{0.4, 0.8, 1.2}
            : std::vector<double>{0.4, 0.7, 1.0, 1.3};
  const double deadline_ms = static_cast<double>(deadline_us) / 1000.0;
  uint64_t seed = 1234;

  const auto sweep = [&](const char* model, uint16_t port,
                         const char* shards_label) {
    double knee_rps = 0.0;
    for (const double m : mults) {
      const double rate = m * cap_rps;
      NetLoadConfig olc = base(port, model);
      olc.offered_rps = rate;
      // ~2 s of traffic per rate, bounded for very slow/fast machines.
      olc.requests = static_cast<size_t>(
          std::clamp(rate * 2.0, 150.0, quick ? 600.0 : 1200.0));
      olc.seed = seed++;
      const NetLoadResult r = run_open_loop(olc);
      const double p99 = pct(r.latency_ms, 0.99);
      char name[96];
      std::snprintf(name, sizeof(name), "net/open_loop/%s/shards=%s/rate=%.1fx",
                    model, shards_label, m);
      BenchRow& br = json.row(name);
      br.wall_ms = pct(r.latency_ms, 0.50);
      br.extra["p95_ms"] = pct(r.latency_ms, 0.95);
      br.extra["p99_ms"] = p99;
      br.extra["p999_ms"] = pct(r.latency_ms, 0.999);
      br.extra["offered_rps"] = r.offered_rps;
      br.extra["achieved_rps"] = r.achieved_rps;
      br.extra["ok"] = static_cast<double>(r.ok);
      br.extra["errors"] = static_cast<double>(r.errors);
      br.extra["unanswered"] = static_cast<double>(r.unanswered);
      br.extra["expired"] = static_cast<double>(
          r.by_status[static_cast<size_t>(net::WireStatus::kDeadlineExpired)]);
      br.extra["queue_full"] = static_cast<double>(
          r.by_status[static_cast<size_t>(net::WireStatus::kQueueFull)]);
      br.extra_str["loop"] = "open";
      std::printf(
          "net: %s shards=%s offered %.0f req/s (%.1fx): p50 %.3f p99 %.3f "
          "p99.9 %.3f ms, ok %zu, shed %zu\n",
          model, shards_label, rate, m, br.wall_ms, p99, br.extra["p999_ms"],
          r.ok, r.errors);
      if (knee_rps == 0.0 &&
          (p99 > deadline_ms || r.error_fraction() > 0.005))
        knee_rps = rate;
    }
    char name[96];
    std::snprintf(name, sizeof(name), "net/knee/%s/shards=%s", model,
                  shards_label);
    BenchRow& br = json.row(name);
    br.extra["knee_rps"] = knee_rps;  // 0 = not reached in this sweep
    br.extra["deadline_ms"] = deadline_ms;
    br.extra["capacity_rps"] = cap_rps;
  };

  const char* solo_label = ep.external ? "external" : "1";
  sweep(kF32, ep.solo_port, solo_label);
  sweep(kInt8, ep.solo_port, solo_label);
  if (ep.shard_port != 0) sweep(kF32, ep.shard_port, "2");

  // Overload divergence: at 1.2x capacity with a budget so large nothing
  // sheds, the closed loop throttles itself to capacity and reports rosy
  // service latencies, while the open loop charges the growing queue to
  // every intended arrival. Open p99 must be strictly worse — that gap IS
  // coordinated omission.
  NetLoadConfig closed = base(ep.solo_port, kF32);
  closed.requests = quick ? 240 : 400;
  closed.deadline_us = 30ull * 1000 * 1000;
  const NetLoadResult cl = run_closed_loop(closed);
  NetLoadConfig open = base(ep.solo_port, kF32);
  open.offered_rps = 1.2 * cap_rps;
  open.requests = static_cast<size_t>(
      std::clamp(open.offered_rps * 2.0, 150.0, quick ? 600.0 : 1200.0));
  open.deadline_us = 30ull * 1000 * 1000;
  open.seed = seed++;
  const NetLoadResult op = run_open_loop(open);
  const double closed_p99 = pct(cl.latency_ms, 0.99);
  const double open_p99 = pct(op.latency_ms, 0.99);
  BenchRow& div = json.row("net/overload/closed_vs_open");
  div.extra["closed_p99_ms"] = closed_p99;
  div.extra["open_p99_ms"] = open_p99;
  div.extra["open_offered_rps"] = op.offered_rps;
  div.extra["closed_achieved_rps"] = cl.achieved_rps;
  if (closed_p99 > 0.0) div.extra["open_over_closed"] = open_p99 / closed_p99;
  std::printf(
      "net: overload (%.0f req/s offered): closed-loop p99 %.3fms vs "
      "open-loop p99 %.3fms (%s)\n",
      op.offered_rps, closed_p99, open_p99,
      open_p99 > closed_p99 ? "open worse — CO visible" : "UNEXPECTED");
}

}  // namespace

int main(int argc, char** argv) {
  const Scale s = parse_scale(argc, argv);
  std::string json_path = parse_json_path(argc, argv);
  if (json_path.empty()) json_path = "BENCH_serve.json";

  size_t per_client = 100, clients = 6;
  if (std::strcmp(s.name, "quick") == 0) {
    per_client = 40;
    clients = 4;
  } else if (std::strcmp(s.name, "full") == 0) {
    per_client = 200;
    clients = 8;
  }
  size_t workers = 2;
  double weight_f32 = 3.0, weight_int8 = 1.0;
  std::string plan_dir, net_host = "127.0.0.1";
  bool no_net = false;
  int connect_port = 0;
  uint64_t deadline_us = 50'000;  // wire budget for the open-loop sweep
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--no-net") == 0) no_net = true;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0)
      per_client = static_cast<size_t>(std::max(1L, std::atol(argv[i + 1])));
    if (std::strcmp(argv[i], "--clients") == 0)
      clients = static_cast<size_t>(std::max(1L, std::atol(argv[i + 1])));
    if (std::strcmp(argv[i], "--workers") == 0)
      workers = static_cast<size_t>(std::max(1L, std::atol(argv[i + 1])));
    if (std::strcmp(argv[i], "--weight-f32") == 0)
      weight_f32 = std::max(0.001, std::atof(argv[i + 1]));
    if (std::strcmp(argv[i], "--weight-int8") == 0)
      weight_int8 = std::max(0.001, std::atof(argv[i + 1]));
    if (std::strcmp(argv[i], "--plan-dir") == 0) plan_dir = argv[i + 1];
    if (std::strcmp(argv[i], "--connect") == 0)
      connect_port = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--host") == 0) net_host = argv[i + 1];
    if (std::strcmp(argv[i], "--deadline-us") == 0)
      deadline_us = static_cast<uint64_t>(std::max(1L, std::atol(argv[i + 1])));
  }
  const size_t max_batch = 32;
  const uint64_t max_wait_us = 200;

  ModelConfig mc;
  mc.base_width = s.width;
  mc.in_hw = s.hw;
  const size_t image_floats = mc.in_channels * s.hw * s.hw;

  // --connect PORT: skip the in-process benches entirely and run the
  // open-loop sweep against an already-running external server (e.g.
  // alf_served) — the CI net-smoke path.
  if (connect_port > 0) {
    Rng net_rng(29);
    const Tensor one = random_input({1, mc.in_channels, s.hw, s.hw}, net_rng);
    NetEndpoints ep;
    ep.host = net_host;
    ep.solo_port = static_cast<uint16_t>(connect_port);
    ep.external = true;
    BenchJson json("serve", s.name);
    try {
      run_net_bench(json, s, ep, image_floats, one.data(), deadline_us);
    } catch (const std::exception& e) {
      // The external server died or refused us mid-sweep (e.g. it was
      // SIGTERMed — exactly what the CI drain check does on purpose).
      // Report and exit nonzero, but never abort.
      std::fprintf(stderr, "serve --connect: external server failed: %s\n",
                   e.what());
      return 1;
    }
    if (json.write(json_path)) {
      std::printf("wrote %s\n", json_path.c_str());
      return 0;
    }
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }

  // Fork the network shards FIRST — before any code spawns a thread
  // (forking a multithreaded process can inherit held mutexes). Three
  // children: one solo port, plus a 2-process SO_REUSEPORT pair on a
  // shared port. All listening sockets exist before the forks, so the
  // sweep's connections queue in the backlog while shards compile.
  NetEndpoints ep;
  std::vector<pid_t> shard_pids;
  if (!no_net) {
    try {
      const int solo_fd = net::listen_on(0);
      ep.solo_port = net::local_port(solo_fd);
      const int pair_fd0 = net::listen_on(0, /*reuseport=*/true);
      ep.shard_port = net::local_port(pair_fd0);
      const int pair_fd1 = net::listen_on(ep.shard_port, /*reuseport=*/true);
      const int fds[3] = {solo_fd, pair_fd0, pair_fd1};
      for (int k = 0; k < 3; ++k) {
        const pid_t pid = ::fork();
        if (pid < 0) {
          std::perror("serve: fork");
          return 1;
        }
        if (pid == 0) {
          for (int j = 0; j < 3; ++j)
            if (j != k) ::close(fds[j]);
          ::_exit(run_net_shard(fds[k], s, max_batch, max_wait_us, plan_dir,
                                /*workers=*/2));
        }
        shard_pids.push_back(pid);
      }
      for (const int fd : fds) ::close(fd);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: net setup failed (%s); running --no-net\n",
                   e.what());
      no_net = true;
    }
  }

  // The served model; the shards build the same weights from the same
  // seed.
  std::unique_ptr<Sequential> model;
  {
    Rng rng(17);
    model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
    warm_bn(*model, mc.in_channels, s.hw, rng);
  }

  Rng rng(29);
  std::vector<Tensor> inputs_by_n(max_batch + 1);
  const auto plan = make_plan(clients, per_client, rng);
  for (const auto& reqs : plan)
    for (const PlannedRequest& r : reqs)
      if (inputs_by_n[r.n].empty())
        inputs_by_n[r.n] =
            random_input({r.n, mc.in_channels, s.hw, s.hw}, rng);

  std::printf(
      "serve: %zu clients x %zu closed-loop requests, engine batch %zu, "
      "max_wait %lluus (scale=%s)\n\n",
      clients, per_client, max_batch,
      static_cast<unsigned long long>(max_wait_us), s.name);

  // --- Engine path: one-worker ModelServer, dynamic batching. The float plan
  // is created ONCE and shared with the multi-model path below (the whole
  // point of the Plan/ExecContext split) — compiled from the model, or
  // with --plan-dir loaded from its alf_planc blob. The compile runs (and
  // is timed) either way, so the cold_start rows always have a baseline.
  const auto dur_ms = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto load_blob = [&](const char* stem, double* load_ms,
                             double* blob_kib) {
    const std::string path = plan_dir + "/" + stem + ".plan";
    const auto t0 = std::chrono::steady_clock::now();
    auto loaded = plan::load(path);
    *load_ms = dur_ms(t0);
    *blob_kib =
        static_cast<double>(std::filesystem::file_size(path)) / 1024.0;
    if (loaded->batch() != max_batch || loaded->in_h() != s.hw ||
        loaded->in_c() != mc.in_channels) {
      std::fprintf(stderr,
                   "serve: %s was generated at a different scale (batch %zu "
                   "hw %zu); regenerate with alf_planc at --%s\n",
                   path.c_str(), loaded->batch(), loaded->in_h(), s.name);
      std::exit(1);
    }
    return loaded;
  };
  const auto t_cf = std::chrono::steady_clock::now();
  auto fplan = Plan::compile(*model, max_batch, mc.in_channels, s.hw, s.hw);
  const double compile_f32_ms = dur_ms(t_cf);
  double load_f32_ms = 0.0, blob_f32_kib = 0.0;
  if (!plan_dir.empty())
    fplan = load_blob("resnet20_f32", &load_f32_ms, &blob_f32_kib);
  ModelServer server;  // one worker
  ModelServer::ModelConfig engine_cfg;
  engine_cfg.max_wait_us = max_wait_us;
  server.add_model(kF32, fplan, engine_cfg);
  server.start();
  server.submit(kF32, inputs_by_n[1]).get();  // untimed warmup
  const ServeStats warm = server.stats(kF32);
  const LoadResult engine =
      run_load(plan, inputs_by_n,
               [&](const Tensor& x) { server.submit(kF32, x).get(); });
  ServeStats st = server.stats(kF32);
  server.stop();
  st.batches -= warm.batches;  // exclude the warmup dispatch
  st.requests -= warm.requests;
  st.images -= warm.images;

  // --- Multi-model path: ModelServer hosting the float net + its int8
  // twin on a shared worker pool (one ExecContext per worker per plan),
  // weighted scheduling between the two queues. ---
  const auto t_cq = std::chrono::steady_clock::now();
  auto qplan = Plan::compile(*model, max_batch, mc.in_channels, s.hw, s.hw,
                             {.backend = "int8", .bits = 8, .name = ""});
  const double compile_int8_ms = dur_ms(t_cq);
  double load_int8_ms = 0.0, blob_int8_kib = 0.0;
  if (!plan_dir.empty())
    qplan = load_blob("resnet20_int8", &load_int8_ms, &blob_int8_kib);
  ModelServer::Config ms_cfg;
  ms_cfg.workers = workers;
  ModelServer multi(ms_cfg);
  ModelServer::ModelConfig f32_cfg, int8_cfg;
  f32_cfg.max_wait_us = max_wait_us;
  f32_cfg.weight = weight_f32;
  int8_cfg.max_wait_us = max_wait_us;
  int8_cfg.weight = weight_int8;
  multi.add_model(kF32, fplan, f32_cfg);
  multi.add_model(kInt8, qplan, int8_cfg);
  multi.start();
  multi.submit(kF32, inputs_by_n[1]).get();  // untimed warmups
  multi.submit(kInt8, inputs_by_n[1]).get();
  const ServeStats warm_f = multi.stats(kF32);
  const ServeStats warm_q = multi.stats(kInt8);
  const MixedResult mixed =
      run_mixed_load(plan, inputs_by_n, multi, kF32, kInt8);
  ServeStats st_f = multi.stats(kF32);
  ServeStats st_q = multi.stats(kInt8);
  multi.stop();
  st_f.batches -= warm_f.batches;  // exclude the warmup dispatches
  st_f.images -= warm_f.images;
  st_q.batches -= warm_q.batches;
  st_q.images -= warm_q.images;

  Table table("Closed-loop serving latency per request (ms)");
  table.set_header({"path", "p50", "p95", "p99", "p99.9", "images/s"});
  // Request-to-model routing is random, so a tiny --requests run can leave
  // one model with no traffic; percentile() throws on an empty sample.
  const auto pct = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : percentile(v, q);
  };
  const auto add = [&](const char* name, const LoadResult& r) {
    table.add_row({name, Table::fmt(pct(r.latencies_ms, 0.50), 3),
                   Table::fmt(pct(r.latencies_ms, 0.95), 3),
                   Table::fmt(pct(r.latencies_ms, 0.99), 3),
                   Table::fmt(pct(r.latencies_ms, 0.999), 3),
                   Table::fmt(r.images_per_s, 0)});
  };
  add("engine+batching", engine);
  add("multi f32", mixed.per_model[0]);
  add("multi int8", mixed.per_model[1]);
  table.print();
  std::printf(
      "\nmulti-model: %zu workers, weights f32=%.1f int8=%.1f, aggregate "
      "%.0f images/s (f32: %zu batches avg fill %.1f | int8: %zu batches "
      "avg fill %.1f)\n",
      workers, weight_f32, weight_int8, mixed.aggregate_images_per_s,
      st_f.batches, st_f.avg_fill(), st_q.batches, st_q.avg_fill());
  std::printf(
      "\nbatcher: %zu dispatches for %zu requests (%zu images), avg fill "
      "%.1f/%zu images, %zu full batches, max fill %zu\n",
      st.batches, st.requests, st.images, st.avg_fill(), max_batch,
      st.full_batches, st.max_fill);

  BenchJson json("serve", s.name);
  // Both latency views on every closed-loop row (the CO fix): service
  // (p*_ms) and schedule-relative response (resp_p*_ms); the meta row
  // below documents the semantics once for the whole artifact.
  const auto co_extras = [&](BenchRow& br, const LoadResult& r) {
    br.extra["p999_ms"] = pct(r.latencies_ms, 0.999);
    br.extra["resp_p50_ms"] = pct(r.response_ms, 0.50);
    br.extra["resp_p99_ms"] = pct(r.response_ms, 0.99);
    br.extra["resp_p999_ms"] = pct(r.response_ms, 0.999);
  };
  {
    BenchRow& meta = json.row("meta/loop_model");
    meta.extra_str["closed_loop"] =
        "p*_ms = service latency (send->done; coordinated-omission-prone); "
        "resp_p*_ms = response latency from the intended send instant "
        "(intended_i = intended_{i-1} + think_i)";
    meta.extra_str["open_loop"] =
        "net/open_loop/* rows: Poisson arrivals drawn ahead of time; "
        "latency measured from the intended arrival instant";
  }
  // The policy string carries quotes on purpose: the JSON writer must
  // escape row names or the trajectory diff breaks (see json_escape).
  char name[96];
  std::snprintf(name, sizeof(name),
                "engine/policy=\"batch=%zu,max_wait=%lluus\"", max_batch,
                static_cast<unsigned long long>(max_wait_us));
  BenchRow& en = json.row(name);
  en.wall_ms = percentile(engine.latencies_ms, 0.50);
  en.extra["p95_ms"] = percentile(engine.latencies_ms, 0.95);
  en.extra["p99_ms"] = percentile(engine.latencies_ms, 0.99);
  en.extra["images_per_s"] = engine.images_per_s;
  en.extra["avg_fill"] = st.avg_fill();
  en.extra["full_batches"] = static_cast<double>(st.full_batches);
  en.extra["dispatches"] = static_cast<double>(st.batches);
  co_extras(en, engine);
  // Per-model multi-tenant rows + the aggregate. Row names carry the
  // scheduling weight as a quoted policy string (escaping regression
  // check, like the engine row above).
  const auto add_model_row = [&](const char* model, const LoadResult& r,
                                 double weight, const ServeStats& mst) {
    char row[96];
    std::snprintf(row, sizeof(row), "model_server/%s policy=\"w=%.1f\"",
                  model, weight);
    BenchRow& br = json.row(row);
    br.wall_ms = pct(r.latencies_ms, 0.50);
    br.extra["p95_ms"] = pct(r.latencies_ms, 0.95);
    br.extra["p99_ms"] = pct(r.latencies_ms, 0.99);
    br.extra["images_per_s"] = r.images_per_s;
    br.extra["avg_fill"] = mst.avg_fill();
    br.extra["dispatches"] = static_cast<double>(mst.batches);
    co_extras(br, r);
  };
  add_model_row(kF32, mixed.per_model[0], weight_f32, st_f);
  add_model_row(kInt8, mixed.per_model[1], weight_int8, st_q);
  // Explicit float-vs-int8 comparison under the same mixed load: per-tail
  // latency ratios (f32 / int8 — > 1 means the quantized twin is faster)
  // plus which qgemm kernel served it, so the serving-path effect of a
  // kernel change is diffable without cross-referencing the per-model rows.
  {
    const double f50 = pct(mixed.per_model[0].latencies_ms, 0.50);
    const double q50 = pct(mixed.per_model[1].latencies_ms, 0.50);
    BenchRow& cmp = json.row("model_server/int8_vs_float");
    cmp.extra["p50_f32_ms"] = f50;
    cmp.extra["p50_int8_ms"] = q50;
    cmp.extra["p95_f32_ms"] = pct(mixed.per_model[0].latencies_ms, 0.95);
    cmp.extra["p95_int8_ms"] = pct(mixed.per_model[1].latencies_ms, 0.95);
    cmp.extra["p99_f32_ms"] = pct(mixed.per_model[0].latencies_ms, 0.99);
    cmp.extra["p99_int8_ms"] = pct(mixed.per_model[1].latencies_ms, 0.99);
    if (q50 > 0.0) cmp.extra["p50_speedup_int8"] = f50 / q50;
    cmp.extra_str["qgemm_backend"] =
        kernels::best_quantized_backend()->name;
    cmp.extra_str["cpu_allowed"] =
        kernels::cpu_feature_names(kernels::allowed_cpu_features());
  }
  // Aggregate latency is the p50 over BOTH models' requests merged, not a
  // per-model alias.
  std::vector<double> all_lat = mixed.per_model[0].latencies_ms;
  all_lat.insert(all_lat.end(), mixed.per_model[1].latencies_ms.begin(),
                 mixed.per_model[1].latencies_ms.end());
  BenchRow& agg = json.row("model_server/aggregate");
  agg.wall_ms = pct(all_lat, 0.50);
  agg.extra["p95_ms"] = pct(all_lat, 0.95);
  agg.extra["p99_ms"] = pct(all_lat, 0.99);
  agg.extra["p999_ms"] = pct(all_lat, 0.999);
  agg.extra["images_per_s"] = mixed.aggregate_images_per_s;
  agg.extra["workers"] = static_cast<double>(workers);
  agg.extra["models"] = 2.0;
  if (!plan_dir.empty()) {
    // Cold start actually paid on this run (plan::load of the served
    // blobs) vs the Plan::compile cost it replaced. Budget: < 10ms/model.
    const auto cold = [&](const char* model, double load_ms,
                          double compile_ms, double blob_kib) {
      char row[64];
      std::snprintf(row, sizeof(row), "cold_start/%s", model);
      BenchRow& br = json.row(row);
      br.wall_ms = load_ms;
      br.extra["plan_load_ms"] = load_ms;
      br.extra["compile_ms"] = compile_ms;
      br.extra["speedup_vs_compile"] = compile_ms / load_ms;
      br.extra["blob_kib"] = blob_kib;
    };
    cold(kF32, load_f32_ms, compile_f32_ms, blob_f32_kib);
    cold(kInt8, load_int8_ms, compile_int8_ms, blob_int8_kib);
    std::printf(
        "plan-dir cold start: f32 %.2fms (compile %.2fms), int8 %.2fms "
        "(compile %.2fms) — budget 10ms/model\n",
        load_f32_ms, compile_f32_ms, load_int8_ms, compile_int8_ms);
  }
  // --- Over the wire: open-loop Poisson sweep against the forked shards,
  // then SIGTERM them and demand a clean drain (exit 0 from every shard =
  // its submitted == ok + shed + orphaned identity held). ---
  bool drain_clean = true;
  if (!no_net) {
    Rng net_rng(31);
    const Tensor one = random_input({1, mc.in_channels, s.hw, s.hw}, net_rng);
    try {
      run_net_bench(json, s, ep, image_floats, one.data(), deadline_us);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: net bench failed: %s\n", e.what());
      drain_clean = false;
    }
    for (const pid_t pid : shard_pids) ::kill(pid, SIGTERM);
    int worst = 0;
    for (const pid_t pid : shard_pids) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
      worst = std::max(worst, rc);
    }
    if (worst != 0) drain_clean = false;
    BenchRow& dr = json.row("net/drain");
    dr.extra["shards"] = static_cast<double>(shard_pids.size());
    dr.extra["drain_clean"] = drain_clean ? 1.0 : 0.0;
    std::printf("net: SIGTERM drain across %zu shards: %s\n",
                shard_pids.size(), drain_clean ? "clean" : "NOT CLEAN");
  }

  if (json.write(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  return drain_clean ? 0 : 1;
}
