// alfbench_driver: one run of one workload of the serving benchmark.
//
//   alfbench_driver --workload W --seed N --seconds S --trace 0|1
//                   --served PATH/alf_served --work DIR
//   alfbench_driver --self-test
//
// A run: build the seeded layer tree; set up kSetupReps times (compile the
// float and int8 plans, save them as blobs, start alf_served, one answer
// per model) and keep the last daemon; compute the oracle's references;
// warm up; drive the closed loop over the wire for S seconds, checking
// every returned row; SIGTERM the daemon and check both sides' accounting.
// With --trace 1 the run also records spans, replays the load in process
// and probes the engine and kernels, and prints the per-layer metrics
// instead of the end-to-end ones. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "daemon.hpp"
#include "engine/plan_io.hpp"
#include "models.hpp"
#include "net/client.hpp"
#include "probes.hpp"
#include "serve/model_server.hpp"
#include "wire_load.hpp"

using namespace alfbench;
namespace fs = std::filesystem;

namespace {

/// Both workloads: closed-loop 32-image requests on two connections.
struct Workload {
  const char* name;
  Family family;
};

constexpr Workload kWorkloads[] = {
    {"closed_full_batch", Family::kDense},
    {"closed_alf_full_batch", Family::kAlf},
};

/// Timed set-ups per run, half before and half after the measured phase.
constexpr int kSetupReps = 16;
/// Warm phase before every measured phase, with the same traffic.
constexpr double kWarmS = 2.0;
/// Length of the in-process replay of the traced mode.
constexpr double kReplayCapS = 5.0;

struct Args {
  std::string workload, served, work;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--served") a.served = v;
    else if (k == "--work") a.work = v;
    else return false;
  }
  return a.self_test ||
         (!a.workload.empty() && !a.served.empty() && !a.work.empty() &&
          a.seconds > 0);
}

/// Latencies behind the latency metrics, in send order: the float model's
/// requests only (a 50/50 mix of two service times puts the median
/// between two modes).
std::vector<double> metric_latencies(std::vector<Sample> lat) {
  std::sort(lat.begin(), lat.end(),
            [](const Sample& a, const Sample& b) { return a.t_s < b.t_s; });
  std::vector<double> ms;
  for (const Sample& s : lat)
    if (s.model == 0) ms.push_back(s.ms);
  return ms;
}

/// Requests per block of the throughput metric.
constexpr size_t kRateBlock = 16;

/// Images answered per second, as the median over the measured phase: the
/// verified requests' completion instants, in time order, cut into
/// consecutive blocks of kRateBlock requests, each block giving a rate.
/// A host stall then slows a few blocks and barely moves the median, where
/// a whole-run mean takes the stall in full. A phase too short for two
/// blocks falls back to that mean.
double median_block_rate(const LoadResult& res) {
  const std::vector<Sample>& lat = res.lat;
  std::vector<double> done;
  for (const Sample& s : lat) done.push_back(s.t_s + s.ms / 1e3);
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (size_t i = 0; i + kRateBlock < done.size(); i += kRateBlock)
    rates.push_back(static_cast<double>(kRateBlock * kBatch) /
                    (done[i + kRateBlock] - done[i]));
  if (rates.size() < 2)
    return static_cast<double>(res.images_ok) / res.elapsed_s;
  return median(rates);
}

void print_metrics_json(const char* prefix, bool correct, size_t attempted,
                        size_t failed, const Metrics& m) {
  std::printf("%s{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              prefix, correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// One round trip of pool image 0 to `model`; the rows are kept for the
/// oracle, which exists only once the blobs are final.
std::vector<float> first_answer(uint16_t port, const std::string& model,
                                const ImagePool& pool) {
  alf::net::WireClient c;
  c.connect(port);
  c.send(model, 0, alf::net::kMaxDeadlineUs, pool.image(0), 1, kImageFloats);
  alf::net::WireClient::Response r;
  if (c.recv(&r, 30'000) != 1 || r.status != alf::net::WireStatus::kOk)
    throw std::runtime_error("first request to " + model + " failed");
  return r.payload;
}

int self_test() {
  // The oracle must pass its own references and catch a one-ulp change of
  // one logit, in a single-image answer and in a full-batch answer, of a
  // served-size float and int8 plan.
  const ImagePool pool = make_pool(kPoolImages, 5);
  auto tree = build_model(Family::kAlf, 3);
  int rc = 0;
  for (const bool int8 : {false, true}) {
    const std::string name = int8 ? "alf_resnet20_int8" : "alf_resnet20_f32";
    const Oracle oracle(name, compile_plan(*tree, int8, name), pool);
    bool caught = oracle.check_against_tree(tree_logits(*tree, pool));
    const size_t start = batch_start(pool, 3);
    const size_t classes = oracle.classes();
    std::vector<float> single(oracle.ref(2), oracle.ref(2) + classes);
    std::vector<float> batch(oracle.batch_ref(3),
                             oracle.batch_ref(3) + kBatch * classes);
    caught = oracle.check(2, 1, single.data()) &&
             oracle.check(start, kBatch, batch.data()) && caught;
    single[3] = std::nextafter(single[3], INFINITY);
    caught = !oracle.check(2, 1, single.data()) && caught;
    float& logit = batch[17 * classes + 5];
    logit = std::nextafter(logit, -INFINITY);
    caught = !oracle.check(start, kBatch, batch.data()) && caught;
    std::printf("self-test: %s: corrupted logits %s\n", name.c_str(),
                caught ? "caught" : "NOT caught");
    if (!caught) rc = 1;
  }
  return rc;
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (a.workload == cand.name) w = &cand;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const ModelPair& pair = pair_of(w->family);
  const std::string plan_dir = a.work + "/plans";
  fs::create_directories(plan_dir);
  Trace trace(a.trace);

  // Inputs from the seed: model weights, image pool, request starts.
  auto tree = build_model(w->family, a.seed);
  const ImagePool pool = make_pool(kPoolImages, a.seed + (1ull << 32));

  // --- Set-up: compile the float and int8 plans, save the blobs, start
  // the daemon, one answer per model. Timed kSetupReps times, half before
  // the measured phase (the last of those daemons serves the load) and
  // half after it, so setup_s samples the host at both ends of the run.
  std::vector<double> setup_s;
  std::vector<std::vector<float>> first(2);
  bool drains_ok = true;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    for (int m = 0; m < 2; ++m) {
      const std::string& name = m == 0 ? pair.f32 : pair.int8;
      auto plan = compile_plan(*tree, m == 1, name);
      alf::plan::save(*plan, plan_dir + "/" + name + ".plan");
    }
    auto d = std::make_unique<Daemon>(a.served, plan_dir,
                                      a.work + "/served.log");
    first[0] = first_answer(d->port(), pair.f32, pool);
    first[1] = first_answer(d->port(), pair.int8, pool);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    return d;
  };
  // A daemon that served no load answered its two first requests only.
  const auto drain_idle = [&](std::unique_ptr<Daemon> d) {
    const Daemon::Drain r = d->terminate();
    drains_ok = drains_ok && r.exited_zero && r.ok == 2;
  };
  std::unique_ptr<Daemon> daemon = set_up();
  for (int rep = 1; rep < kSetupReps / 2; ++rep) {
    drain_idle(std::move(daemon));
    daemon = set_up();
  }

  // --- Oracle: references apart from the serving path. ------------------
  std::vector<std::shared_ptr<const alf::Plan>> plans = {
      alf::plan::load(plan_dir + "/" + pair.f32 + ".plan"),
      alf::plan::load(plan_dir + "/" + pair.int8 + ".plan")};
  const Oracle f32_oracle(pair.f32, plans[0], pool);
  const Oracle int8_oracle(pair.int8, plans[1], pool);
  const std::vector<float> tree_out = tree_logits(*tree, pool);
  bool correct = f32_oracle.check_against_tree(tree_out);
  correct = int8_oracle.check_against_tree(tree_out) && correct;
  const auto first_ok = [&] {
    return first[0].size() == f32_oracle.classes() &&
           f32_oracle.check(0, 1, first[0].data()) &&
           first[1].size() == int8_oracle.classes() &&
           int8_oracle.check(0, 1, first[1].data());
  };
  correct = first_ok() && correct;
  const Served served{{pair.f32, pair.int8}, {&f32_oracle, &int8_oracle}};

  // --- Measured phase, after a warm phase of the same traffic. ----------
  const LoadResult touched = touch_full_batches(daemon->port(), served, pool);
  const WireRun wire = run_closed_wire(
      daemon->port(), ClosedPlan{a.seed, a.seconds}, kWarmS, served, pool,
      trace);
  const LoadResult& warm = wire.warm;
  const LoadResult& res = wire.measured;
  correct = correct && touched.ok == touched.sent && warm.ok == warm.sent;
  const double rss_mib = daemon->peak_rss_mib();

  // --- Drain and accounting. --------------------------------------------
  const Daemon::Drain d = daemon->terminate();
  daemon.reset();
  for (int rep = kSetupReps / 2; rep < kSetupReps; ++rep) {
    drain_idle(set_up());
    correct = first_ok() && correct;
  }
  const uint64_t daemon_ok_expected = 2 + touched.ok + touched.mismatched +
                                      warm.ok + warm.mismatched + res.ok +
                                      res.mismatched;
  const bool client_ok = res.sent == res.ok + res.failed();
  drains_ok = drains_ok && d.exited_zero && d.ok == daemon_ok_expected;
  if (!drains_ok || !client_ok)
    std::fprintf(stderr,
                 "accounting: daemon exit0=%d submitted=%llu ok=%llu "
                 "(expected %llu) shed=%llu orphaned=%llu; client sent=%zu "
                 "ok=%zu failed=%zu unanswered=%zu\n",
                 d.exited_zero, static_cast<unsigned long long>(d.submitted),
                 static_cast<unsigned long long>(d.ok),
                 static_cast<unsigned long long>(daemon_ok_expected),
                 static_cast<unsigned long long>(d.shed),
                 static_cast<unsigned long long>(d.orphaned), res.sent,
                 res.ok, res.failed(), res.unanswered);
  correct = correct && drains_ok && client_ok;

  const std::vector<double> lat = metric_latencies(res.lat);
  double tail_pct = 0.0;
  Metrics e2e;
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["lat_p50_ms"] = {median(lat), "ms"};
  e2e["images_per_s"] = {median_block_rate(res), "img/s"};
  e2e["server_rss_mib"] = {rss_mib, "MiB"};

  // The latency tail is printed, not a metric: on a shared host it moves
  // with the host's stalls far more than any bound could absorb.
  const double lat_tail = windowed_tail(lat, &tail_pct);
  const double late_p99 = tail(res.late_ms);
  std::printf("%s seed=%llu: %zu requests, %zu latency samples, latency "
              "p50 %.3f ms p%.2f %.3f ms; sender lateness p50 %.3f ms p99 "
              "%.3f ms; whole-phase mean %.1f img/s\n",
              w->name, static_cast<unsigned long long>(a.seed), res.sent,
              lat.size(), e2e["lat_p50_ms"].value, tail_pct, lat_tail,
              median(res.late_ms), late_p99,
              static_cast<double>(res.images_ok) / res.elapsed_s);

  if (!a.trace) {
    print_metrics_json("", correct, res.sent, res.failed(), e2e);
    return 0;
  }

  // --- Traced mode: per-layer metrics. ----------------------------------
  print_metrics_json("traced_end_to_end ", correct, res.sent, res.failed(),
                     e2e);
  Metrics pl;
  pl["loadgen.send_late_ms.p50"] = {median(res.late_ms), "ms"};
  pl["loadgen.send_late_ms.p99"] = {late_p99, "ms"};
  pl["net.req_bytes"] = {static_cast<double>(res.req_bytes) / res.sent, "B"};
  pl["net.resp_bytes"] = {
      static_cast<double>(res.resp_bytes) / (res.ok + res.mismatched), "B"};
  {
    // The same load in process, against the same blobs and the
    // daemon's queue settings (alf_served defaults). Serving counters
    // include the replay's warm phase.
    alf::ModelServer::Config scfg;
    scfg.workers = 2;
    alf::ModelServer server(scfg);
    alf::ModelServer::ModelConfig mc;
    mc.max_wait_us = 200;
    mc.max_queue = 8192;
    server.add_model(pair.f32, plans[0], mc);
    server.add_model(pair.int8, plans[1], mc);
    server.start();
    const LoadResult rep = replay_closed(
        server, ClosedPlan{a.seed, kReplayCapS}, kWarmS, served, pool, trace);
    server.stop();
    correct = correct && rep.failed() == 0;
    const std::vector<double> soj = metric_latencies(rep.lat);
    pl["serve.sojourn_ms.p50"] = {median(soj), "ms"};
    pl["serve.sojourn_ms.p99"] = {windowed_tail(soj), "ms"};
    pl["net.overhead_ms.p50"] = {median(lat) - median(soj), "ms"};
    const char* role[2] = {"f32", "int8"};
    for (int m = 0; m < 2; ++m) {
      const alf::ServeStats st = server.stats(served.name[m]);
      pl[std::string("serve.avg_fill.") + role[m]] = {st.avg_fill(), "img"};
      pl[std::string("serve.batches.") + role[m]] = {
          static_cast<double>(st.batches), "count"};
    }
  }
  // Engine and kernels of all four served models.
  const std::string probe_dir = a.work + "/probe";
  fs::create_directories(probe_dir);
  auto dense = w->family == Family::kDense ? std::move(tree)
                                           : build_model(Family::kDense, a.seed);
  auto alf_tree = w->family == Family::kAlf ? std::move(tree)
                                            : build_model(Family::kAlf, a.seed);
  for (const Family f : {Family::kDense, Family::kAlf}) {
    const ModelPair& p = pair_of(f);
    const alf::Sequential& t = f == Family::kDense ? *dense : *alf_tree;
    probe_engine(p.f32, t, false, probe_dir, pool, trace, pl);
    probe_engine(p.int8, t, true, probe_dir, pool, trace, pl);
  }
  pl["kernels.peak_gmacs.f32"] = {gemm_peak_gmacs(plans[0]->backend()),
                                  "GMAC/s"};
  pl["kernels.peak_gmacs.int8"] = {gemm_peak_gmacs(plans[1]->backend()),
                                   "GMAC/s"};
  const std::string spans =
      "spans-" + a.workload + "-" + std::to_string(a.seed) + ".csv";
  if (!trace.write_csv(a.work + "/" + spans)) {
    std::fprintf(stderr, "cannot write %s\n", spans.c_str());
    return 1;
  }
  std::printf("trace: %zu spans written to %s\n", trace.size(),
              spans.c_str());
  print_metrics_json("", correct, res.sent, res.failed(), pl);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: alfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --served EXE --work DIR\n"
                 "       alfbench_driver --self-test\n");
    return 2;
  }
  // One compute thread in this process: plans get the single-chunk grid
  // the daemon's two inline workers run, and the reference runs do not
  // compete with the load for cores.
  alf::set_parallel_threads(1);
  try {
    return a.self_test ? self_test() : run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alfbench_driver: %s\n", e.what());
    return 1;
  }
}
