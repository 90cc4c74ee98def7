// Serving-layer tests, the ThreadSanitizer CI target:
//  - OneModelServer: a ModelServer hosting one model on one worker, the
//    single-model serving setup. Dynamic batching correctness (batched
//    results bit-identical to direct per-request ExecContext::run),
//    queue/CV behavior under concurrent producers, starvation bounds,
//    drain-on-stop, loud rejection of malformed submissions, shed
//    policies, deadlines.
//  - ModelServer: multi-model bit-identity (float + int8 plans on one
//    shared worker pool), weighted-share convergence under saturation,
//    concurrent submits to different models, drain-on-stop across all
//    model queues, coherent stats snapshots (conservation identity).
//  - Plan/ExecContext: concurrent contexts on one immutable Plan are
//    race-free and bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/asan.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "grad_check.hpp"
#include "models/zoo.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "serve/model_server.hpp"

namespace alf {
namespace {

using testing::random_input;

constexpr size_t kHw = 8;
constexpr size_t kInC = 3;
constexpr size_t kClasses = 5;
constexpr size_t kBatch = 8;
constexpr const char* kModel = "toy";

/// Small conv net — big enough to exercise conv/BN-fold/linear steps,
/// small enough that serve tests stay fast under TSan.
std::unique_ptr<Sequential> toy_model(Rng& rng) {
  auto m = std::make_unique<Sequential>("toy");
  m->emplace<Conv2d>("c1", kInC, 8, 3, 1, 1, Init::kHe, rng);
  m->emplace<BatchNorm2d>("c1_bn", 8);
  m->emplace<Activation>("c1_relu", Act::kRelu);
  m->emplace<GlobalAvgPool>("gap");
  m->emplace<Flatten>("flatten");
  m->emplace<Linear>("fc", 8, kClasses, Init::kHe, rng);
  return m;
}

void warm_bn(Sequential& model, Rng& rng) {
  bench::warm_bn(model, kInC, kHw, rng, /*passes=*/3, /*batch=*/4);
}

std::shared_ptr<const Plan> toy_plan(const Sequential& model) {
  return Plan::compile(model, kBatch, kInC, kHw, kHw);
}

/// A started one-worker ModelServer hosting `plan` as kModel.
std::unique_ptr<ModelServer> serve_one(std::shared_ptr<const Plan> plan,
                                       ModelServer::ModelConfig mc = {},
                                       bool start_paused = false) {
  ModelServer::Config cfg;
  cfg.workers = 1;
  cfg.start_paused = start_paused;
  auto server = std::make_unique<ModelServer>(cfg);
  server->add_model(kModel, std::move(plan), mc);
  server->start();
  return server;
}

TEST(OneModelServer, BatchedResultsBitIdenticalToDirectRun) {
  Rng rng(51);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  // Two plans compiled from the same model are identical; one serves, the
  // other is the per-request reference.
  ExecContext ref(toy_plan(*model));

  ModelServer::ModelConfig mc;
  mc.max_wait_us = 1000;
  // Start paused: stage the whole backlog, then release it.
  auto server = serve_one(toy_plan(*model), mc, /*start_paused=*/true);

  // Prefix batching over a staged queue is deterministic: [3,2,1] = 6 (the
  // 8 does not fit), [8] full, [4,4] full, [2,1,1] = 4 on the tail tick.
  const std::vector<size_t> sizes = {3, 2, 1, 8, 4, 4, 2, 1, 1};
  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> futures;
  for (const size_t n : sizes) {
    inputs.push_back(random_input({n, kInC, kHw, kHw}, rng));
    futures.push_back(server->submit(kModel, inputs.back()));
  }
  EXPECT_EQ(server->pending(kModel), sizes.size());
  server->resume();
  for (size_t i = 0; i < sizes.size(); ++i) {
    Tensor got = futures[i].get();
    ASSERT_EQ(got.dim(0), sizes[i]);
    ASSERT_EQ(got.dim(1), kClasses);
    const Tensor want = ref.run(inputs[i]);
    for (size_t j = 0; j < want.numel(); ++j)
      EXPECT_EQ(want.at(j), got.at(j)) << "request " << i << " elem " << j;
  }
  const ServeStats st = server->stats(kModel);
  EXPECT_EQ(st.requests, sizes.size());
  EXPECT_EQ(st.images, size_t{26});
  EXPECT_EQ(st.batches, size_t{4});
  EXPECT_EQ(st.full_batches, size_t{2});
  EXPECT_EQ(st.max_fill, kBatch);
  EXPECT_DOUBLE_EQ(st.avg_fill(), 26.0 / 4.0);
}

TEST(OneModelServer, ConcurrentProducersAllServedCorrectly) {
  Rng rng(52);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  ExecContext ref(toy_plan(*model));
  set_parallel_threads(2);  // batch dispatch exercises the worker pool
  auto server = serve_one(toy_plan(*model));

  constexpr size_t kProducers = 4, kPerProducer = 20;
  struct Issued {
    Tensor x;
    std::future<Tensor> fut;
  };
  std::vector<std::vector<Issued>> issued(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng prng(100 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        const size_t n = 1 + prng.uniform_index(4);
        Tensor x = random_input({n, kInC, kHw, kHw}, prng);
        std::future<Tensor> fut = server->submit(kModel, x);
        issued[p].push_back(Issued{std::move(x), std::move(fut)});
      }
    });
  }
  for (auto& t : producers) t.join();

  for (auto& per_producer : issued) {
    for (Issued& rq : per_producer) {
      Tensor got = rq.fut.get();
      const Tensor want = ref.run(rq.x);
      ASSERT_TRUE(same_shape(want, got));
      for (size_t j = 0; j < want.numel(); ++j) EXPECT_EQ(want.at(j), got.at(j));
    }
  }
  server->stop();
  set_parallel_threads(0);
  const ServeStats st = server->stats(kModel);
  EXPECT_EQ(st.requests, kProducers * kPerProducer);
  EXPECT_EQ(server->pending(kModel), size_t{0});
  EXPECT_GE(st.batches, size_t{1});
  EXPECT_LE(st.batches, st.requests);
}

TEST(OneModelServer, RuntimePauseHoldsTheBacklogUntilResume) {
  // pause() on a live server (not just start_paused) must stop new batch
  // formation: requests stay queued — even one submitted just before the
  // pause, whose tick the dispatcher abandons — until resume().
  Rng rng(57);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  ModelServer::ModelConfig mc;
  mc.max_wait_us = 200000;  // 200ms: the open tick outlives the pause below
  auto server = serve_one(toy_plan(*model), mc);

  std::vector<std::future<Tensor>> futures;
  // The first submission opens a tick that waits for batch-mates; pause()
  // lands inside that wait and must abandon the tick, not dispatch it.
  futures.push_back(
      server->submit(kModel, random_input({1, kInC, kHw, kHw}, rng)));
  server->pause();
  for (int i = 0; i < 4; ++i)
    futures.push_back(
        server->submit(kModel, random_input({1, kInC, kHw, kHw}, rng)));
  // Sleep past the abandoned tick's deadline: nothing may have dispatched.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server->pending(kModel), size_t{5});
  EXPECT_EQ(server->stats(kModel).batches, size_t{0});
  server->resume();
  for (auto& fut : futures) EXPECT_EQ(fut.get().dim(0), size_t{1});
  EXPECT_EQ(server->pending(kModel), size_t{0});
  EXPECT_EQ(server->stats(kModel).images, size_t{5});
}

TEST(OneModelServer, LoneRequestIsNotStarvedPastTheWaitBudget) {
  Rng rng(53);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  ModelServer::ModelConfig mc;
  mc.max_wait_us = 500;
  auto server = serve_one(toy_plan(*model), mc);

  Tensor x = random_input({1, kInC, kHw, kHw}, rng);
  std::future<Tensor> fut = server->submit(kModel, x);
  // Generous bound: the tick closes after max_wait_us, not a full batch.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(fut.get().dim(0), size_t{1});
  EXPECT_EQ(server->stats(kModel).batches, size_t{1});
}

TEST(OneModelServer, StopDrainsEveryQueuedRequest) {
  Rng rng(54);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto server = serve_one(toy_plan(*model), {}, /*start_paused=*/true);

  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(
        server->submit(kModel, random_input({2, kInC, kHw, kHw}, rng)));
  EXPECT_EQ(server->pending(kModel), size_t{10});
  server->stop();  // overrides the pause and drains before joining
  EXPECT_EQ(server->pending(kModel), size_t{0});
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(fut.get().dim(0), size_t{2});
  }
  EXPECT_EQ(server->stats(kModel).requests, size_t{10});
}

TEST(OneModelServer, CallbackOverloadDeliversLogits) {
  Rng rng(55);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto server = serve_one(toy_plan(*model));

  std::promise<Tensor> done;
  std::future<Tensor> fut = done.get_future();
  server->submit(
      kModel, random_input({3, kInC, kHw, kHw}, rng),
      [&done](Tensor&& logits) { done.set_value(std::move(logits)); });
  Tensor got = fut.get();
  EXPECT_EQ(got.dim(0), size_t{3});
  EXPECT_EQ(got.dim(1), kClasses);
}

TEST(OneModelServer, MalformedSubmissionsFailLoudly) {
  Rng rng(56);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto server = serve_one(toy_plan(*model));

  // Oversized request, wrong channel count, wrong spatial size, wrong rank.
  EXPECT_THROW(server->submit(kModel, Tensor({kBatch + 1, kInC, kHw, kHw})),
               CheckError);
  EXPECT_THROW(server->submit(kModel, Tensor({1, kInC + 1, kHw, kHw})),
               CheckError);
  EXPECT_THROW(server->submit(kModel, Tensor({1, kInC, kHw, kHw + 2})),
               CheckError);
  EXPECT_THROW(server->submit(kModel, Tensor({kInC, kHw, kHw})), CheckError);
  EXPECT_THROW(server->submit(kModel, Tensor({1, kInC, kHw, kHw}), nullptr),
               CheckError);

  server->stop();
  EXPECT_THROW(server->submit(kModel, Tensor({1, kInC, kHw, kHw})),
               CheckError);
  // stop() is idempotent.
  server->stop();
}

TEST(OneModelServer, AdmissionControlRejectsPastMaxQueue) {
  Rng rng(57);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  ExecContext ref(toy_plan(*model));

  ModelServer::ModelConfig mc;
  mc.max_queue = 3;
  // Start paused: hold the backlog so the bound is hit exactly.
  auto server = serve_one(toy_plan(*model), mc, /*start_paused=*/true);

  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> accepted;
  for (size_t i = 0; i < mc.max_queue; ++i) {
    inputs.push_back(random_input({1, kInC, kHw, kHw}, rng));
    accepted.push_back(server->submit(kModel, inputs.back()));
  }
  EXPECT_EQ(server->pending(kModel), mc.max_queue);

  // The bound is on requests held, and the error is the typed overload
  // signal — not CheckError, which stays reserved for misuse.
  Tensor extra = random_input({1, kInC, kHw, kHw}, rng);
  EXPECT_THROW(server->submit(kModel, extra), QueueFullError);
  try {
    server->submit(kModel, extra);
    FAIL() << "expected QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  EXPECT_EQ(server->pending(kModel), mc.max_queue);  // rejects never enqueue
  EXPECT_EQ(server->stats(kModel).rejected, size_t{2});

  // Draining the backlog reopens admission; every accepted request is
  // still served exactly (rejection sheds load, it never corrupts).
  server->resume();
  for (size_t i = 0; i < accepted.size(); ++i) {
    Tensor got = accepted[i].get();
    const Tensor want = ref.run(inputs[i]);
    for (size_t j = 0; j < want.numel(); ++j) EXPECT_EQ(want.at(j), got.at(j));
  }
  std::future<Tensor> reopened = server->submit(kModel, extra);
  const Tensor want = ref.run(extra);
  Tensor got = reopened.get();
  for (size_t j = 0; j < want.numel(); ++j) EXPECT_EQ(want.at(j), got.at(j));
  const ServeStats st = server->stats(kModel);
  EXPECT_EQ(st.requests, mc.max_queue + 1);
  EXPECT_EQ(st.rejected, size_t{2});
}

TEST(OneModelServer, DropOldestShedsTheStaleHeadNotTheNewSubmit) {
  Rng rng(59);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  ExecContext ref(toy_plan(*model));

  ModelServer::ModelConfig mc;
  mc.max_queue = 2;
  mc.shed = ShedPolicy::kDropOldest;
  // Start paused: hold the backlog so the bound is hit exactly.
  auto server = serve_one(toy_plan(*model), mc, /*start_paused=*/true);

  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> futures;
  for (size_t i = 0; i < 3; ++i) {
    inputs.push_back(random_input({1, kInC, kHw, kHw}, rng));
    futures.push_back(server->submit(kModel, inputs.back()));
  }
  // The third submit found the queue full: it was ADMITTED and the oldest
  // (request 0) was shed — its future completes with QueueFullError, the
  // typed overload signal, not CheckError.
  EXPECT_EQ(server->pending(kModel), size_t{2});
  EXPECT_THROW(futures[0].get(), QueueFullError);
  ServeStats st = server->stats(kModel);
  EXPECT_EQ(st.accepted, size_t{3});
  EXPECT_EQ(st.dropped_oldest, size_t{1});
  EXPECT_EQ(st.rejected, size_t{0});

  // The survivors still serve exactly.
  server->resume();
  for (size_t i = 1; i < 3; ++i) {
    Tensor got = futures[i].get();
    const Tensor want = ref.run(inputs[i]);
    for (size_t j = 0; j < want.numel(); ++j) EXPECT_EQ(want.at(j), got.at(j));
  }
  server->stop();  // joins: the delivered bookkeeping is final
  st = server->stats(kModel);
  EXPECT_EQ(st.completed, size_t{2});
  EXPECT_EQ(st.accepted,
            st.completed + st.dropped_oldest + st.expired + st.queued +
                st.in_flight);
}

TEST(OneModelServer, ExpiredDeadlinesAreShedBeforeBatchFormation) {
  Rng rng(60);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  // Start paused: the pause guarantees the deadline passes.
  auto server = serve_one(toy_plan(*model), {}, /*start_paused=*/true);

  ModelServer::SubmitOptions slo;
  slo.deadline_us = 1;  // expires while the server is paused
  std::future<Tensor> doomed =
      server->submit(kModel, random_input({1, kInC, kHw, kHw}, rng), slo);
  std::future<Tensor> unbounded =
      server->submit(kModel, random_input({2, kInC, kHw, kHw}, rng));
  ModelServer::SubmitOptions generous;
  generous.deadline_us = 60'000'000;  // far future: must NOT be shed
  std::future<Tensor> within =
      server->submit(kModel, random_input({1, kInC, kHw, kHw}, rng), generous);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server->resume();

  EXPECT_THROW(doomed.get(), DeadlineExpiredError);
  EXPECT_EQ(unbounded.get().dim(0), size_t{2});
  EXPECT_EQ(within.get().dim(0), size_t{1});
  server->stop();  // joins: the delivered bookkeeping is final
  const ServeStats st = server->stats(kModel);
  EXPECT_EQ(st.expired, size_t{1});
  EXPECT_EQ(st.completed, size_t{2});
  // Expired requests never reach the engine.
  EXPECT_EQ(st.images, size_t{3});
  EXPECT_EQ(st.accepted,
            st.completed + st.dropped_oldest + st.expired + st.queued +
                st.in_flight);
}

TEST(OneModelServer, StatsSnapshotConservesRequestsUnderConcurrentLoad) {
  // stats() copies one struct under the queue mutex, so the conservation
  // identity must hold at EVERY instant — snapshot repeatedly while
  // producers and the dispatcher race.
  Rng rng(61);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto server = serve_one(toy_plan(*model));

  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<Tensor>>> futs(3);
  for (size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      Rng prng(200 + p);
      for (size_t i = 0; i < 30; ++i)
        futs[p].push_back(server->submit(
            kModel,
            random_input({1 + prng.uniform_index(3), kInC, kHw, kHw}, prng)));
    });
  }
  for (int snap = 0; snap < 200; ++snap) {
    const ServeStats st = server->stats(kModel);
    ASSERT_EQ(st.accepted, st.completed + st.dropped_oldest + st.expired +
                               st.queued + st.in_flight)
        << "snapshot " << snap;
    if (done.load()) break;
  }
  for (auto& t : producers) t.join();
  done = true;
  for (auto& per : futs)
    for (auto& f : per) f.get();
  server->stop();
  const ServeStats st = server->stats(kModel);
  EXPECT_EQ(st.accepted, size_t{90});
  EXPECT_EQ(st.completed, size_t{90});
  EXPECT_EQ(st.in_flight, size_t{0});
  EXPECT_EQ(st.queued, size_t{0});
}

TEST(OneModelServer, UnboundedQueueByDefault) {
  Rng rng(58);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto server = serve_one(toy_plan(*model), {}, /*start_paused=*/true);
  // Far past any batch multiple: nothing rejects with max_queue = 0.
  std::vector<std::future<Tensor>> futs;
  for (size_t i = 0; i < 4 * kBatch; ++i)
    futs.push_back(
        server->submit(kModel, random_input({1, kInC, kHw, kHw}, rng)));
  EXPECT_EQ(server->pending(kModel), 4 * kBatch);
  EXPECT_EQ(server->stats(kModel).rejected, size_t{0});
  server->resume();
  for (auto& f : futs) f.get();
}

// --- ModelServer: several models on one shared worker pool ----------------

TEST(ModelServer, MultiModelBitIdenticalToDirectRunOnSharedPool) {
  // A float toy net and its int8 twin served concurrently from one
  // 2-worker pool must produce exactly the bits of a direct
  // single-threaded ExecContext::run per model — the Plans are SHARED
  // between the server's worker contexts and the reference contexts.
  Rng rng(70);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto fplan = Plan::compile(*model, kBatch, kInC, kHw, kHw);
  auto qplan = Plan::compile(*model, kBatch, kInC, kHw, kHw,
                             {.backend = "int8", .bits = 8, .name = ""});
  ASSERT_FALSE(fplan->quantized());
  ASSERT_TRUE(qplan->quantized());
  ExecContext fref(fplan);
  ExecContext qref(qplan);

  ModelServer::Config cfg;
  cfg.workers = 2;
  ModelServer server(cfg);
  server.add_model("toy_f32", fplan);
  server.add_model("toy_int8", qplan);
  server.start();

  struct Issued {
    const char* model;
    Tensor x;
    std::future<Tensor> fut;
  };
  std::vector<Issued> issued;
  for (size_t i = 0; i < 24; ++i) {
    const char* name = i % 2 == 0 ? "toy_f32" : "toy_int8";
    Tensor x = random_input({1 + rng.uniform_index(4), kInC, kHw, kHw}, rng);
    std::future<Tensor> fut = server.submit(name, x);
    issued.push_back(Issued{name, std::move(x), std::move(fut)});
  }
  for (Issued& rq : issued) {
    Tensor got = rq.fut.get();
    ExecContext& ref = std::string(rq.model) == "toy_f32" ? fref : qref;
    const Tensor want = ref.run(rq.x);
    ASSERT_TRUE(same_shape(want, got)) << rq.model;
    for (size_t j = 0; j < want.numel(); ++j)
      EXPECT_EQ(want.at(j), got.at(j)) << rq.model << " elem " << j;
  }
  server.stop();
  EXPECT_EQ(server.stats("toy_f32").completed, size_t{12});
  EXPECT_EQ(server.stats("toy_int8").completed, size_t{12});
}

TEST(ModelServer, ConcurrentSubmitsToDifferentModelsAllServed) {
  Rng rng(71);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto fplan = Plan::compile(*model, kBatch, kInC, kHw, kHw);
  auto qplan = Plan::compile(*model, kBatch, kInC, kHw, kHw,
                             {.backend = "int8", .bits = 8, .name = ""});
  ExecContext fref(fplan);
  ExecContext qref(qplan);

  ModelServer::Config cfg;
  cfg.workers = 3;
  ModelServer server(cfg);
  server.add_model("f32", fplan);
  server.add_model("int8", qplan);
  server.start();

  constexpr size_t kProducers = 4, kPerProducer = 12;
  struct Issued {
    bool quant;
    Tensor x;
    std::future<Tensor> fut;
  };
  std::vector<std::vector<Issued>> issued(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng prng(300 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        const bool quant = prng.uniform() < 0.5;
        Tensor x =
            random_input({1 + prng.uniform_index(4), kInC, kHw, kHw}, prng);
        std::future<Tensor> fut =
            server.submit(quant ? "int8" : "f32", x);
        issued[p].push_back(Issued{quant, std::move(x), std::move(fut)});
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& per : issued) {
    for (Issued& rq : per) {
      Tensor got = rq.fut.get();
      const Tensor want = (rq.quant ? qref : fref).run(rq.x);
      ASSERT_TRUE(same_shape(want, got));
      for (size_t j = 0; j < want.numel(); ++j)
        EXPECT_EQ(want.at(j), got.at(j));
    }
  }
  server.stop();
  const ServeStats total = server.stats();
  EXPECT_EQ(total.completed, kProducers * kPerProducer);
  EXPECT_EQ(total.accepted, total.completed);
}

TEST(ModelServer, WeightedSharesConvergeUnderSaturation) {
  // Weights 3:1 on two saturated queues: while BOTH are backlogged the
  // scheduler must hand model A ~3x the images of model B. Single worker +
  // full staged backlog makes the dispatch order deterministic; the
  // callbacks record it, and the share is measured at the moment B's last
  // request completes (afterwards A drains alone, which would wash the
  // ratio out to the queue lengths).
  Rng rng(72);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto plan = Plan::compile(*model, kBatch, kInC, kHw, kHw);

  ModelServer::Config cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  ModelServer server(cfg);
  ModelServer::ModelConfig heavy, light;
  heavy.weight = 3.0;
  heavy.max_wait_us = 0;  // saturated queues need no batching wait
  light.weight = 1.0;
  light.max_wait_us = 0;
  server.add_model("heavy", plan, heavy);
  server.add_model("light", plan, light);
  server.start();

  // Full-batch requests so every dispatch moves exactly kBatch images.
  constexpr size_t kHeavyBatches = 40, kLightBatches = 10;
  std::mutex order_m;
  std::vector<char> order;  // 'h' / 'l' per completed batch
  std::vector<std::future<void>> sync;
  Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
  const auto submit_batches = [&](const char* name, char tag, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      server.submit(name, x, [&order_m, &order, tag](Tensor&&) {
        std::lock_guard<std::mutex> lk(order_m);
        order.push_back(tag);
      });
    }
  };
  submit_batches("heavy", 'h', kHeavyBatches);
  submit_batches("light", 'l', kLightBatches);
  server.resume();
  server.stop();  // drains everything; `order` is final

  ASSERT_EQ(order.size(), kHeavyBatches + kLightBatches);
  size_t last_l = 0;
  for (size_t i = 0; i < order.size(); ++i)
    if (order[i] == 'l') last_l = i;
  size_t h_before = 0;
  for (size_t i = 0; i < last_l; ++i)
    if (order[i] == 'h') ++h_before;
  // While both queues were saturated, heavy got ~3x light's share. The
  // exact deficit sequence gives 27..30 heavy batches before the 10th
  // light one; the window tolerates scheduler tie-break changes.
  const double ratio = static_cast<double>(h_before) /
                       static_cast<double>(kLightBatches);
  EXPECT_GE(ratio, 2.2) << "heavy " << h_before << " before light "
                        << kLightBatches;
  EXPECT_LE(ratio, 3.8) << "heavy " << h_before << " before light "
                        << kLightBatches;
  EXPECT_EQ(server.stats("heavy").images, kHeavyBatches * kBatch);
  EXPECT_EQ(server.stats("light").images, kLightBatches * kBatch);
}

TEST(ModelServer, StopDrainsEveryModelQueue) {
  Rng rng(73);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto fplan = Plan::compile(*model, kBatch, kInC, kHw, kHw);
  auto qplan = Plan::compile(*model, kBatch, kInC, kHw, kHw,
                             {.backend = "int8", .bits = 8, .name = ""});

  ModelServer::Config cfg;
  cfg.workers = 2;
  cfg.start_paused = true;
  ModelServer server(cfg);
  server.add_model("a", fplan);
  server.add_model("b", qplan);
  server.start();

  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit("a", random_input({2, kInC, kHw, kHw},
                                                      rng)));
    futures.push_back(server.submit("b", random_input({1, kInC, kHw, kHw},
                                                      rng)));
  }
  EXPECT_EQ(server.pending(), size_t{16});
  EXPECT_EQ(server.pending("a"), size_t{8});
  server.stop();  // overrides the pause and drains BOTH queues
  EXPECT_EQ(server.pending(), size_t{0});
  for (auto& fut : futures) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    fut.get();
  }
  EXPECT_EQ(server.stats("a").completed, size_t{8});
  EXPECT_EQ(server.stats("b").completed, size_t{8});
  EXPECT_THROW(server.submit("a", random_input({1, kInC, kHw, kHw}, rng)),
               CheckError);
}

TEST(ModelServer, RegistryMisuseFailsLoudly) {
  Rng rng(74);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto plan = Plan::compile(*model, kBatch, kInC, kHw, kHw);

  ModelServer server;
  EXPECT_THROW(server.start(), CheckError);  // no models
  EXPECT_THROW(server.submit("toy", Tensor({1, kInC, kHw, kHw})),
               CheckError);  // before start
  server.add_model("toy", plan);
  EXPECT_THROW(server.add_model("toy", plan), CheckError);  // duplicate
  EXPECT_THROW(server.add_model("", plan), CheckError);     // empty name
  EXPECT_THROW(server.add_model("null", nullptr), CheckError);
  server.start();
  EXPECT_THROW(server.add_model("late", plan), CheckError);  // after start
  EXPECT_THROW(server.submit("unknown", Tensor({1, kInC, kHw, kHw})),
               CheckError);
  EXPECT_THROW(server.stats("unknown"), CheckError);
  // The hosted model still works after all that shouting.
  EXPECT_EQ(server.submit("toy", random_input({1, kInC, kHw, kHw}, rng))
                .get()
                .dim(0),
            size_t{1});
  server.stop();
}

// --- Plan/ExecContext: the split the server is built on -------------------

TEST(ExecContext, ConcurrentContextsOnOneImmutablePlanAreRaceFree) {
  // The multi-tenant contract in one test: N threads, each with its OWN
  // ExecContext, hammer the SAME Plan concurrently (this suite runs under
  // TSan in CI — a mutable Plan would be flagged immediately) and every
  // run must reproduce the single-threaded reference bits.
  Rng rng(75);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  for (const char* backend : {"", "int8"}) {
    EngineOptions opts;
    opts.backend = backend;
    auto plan = Plan::compile(*model, kBatch, kInC, kHw, kHw, opts);

    Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
    ExecContext ref_ctx(plan);
    const Tensor want = ref_ctx.run(x);

    constexpr size_t kThreads = 4, kIters = 16;
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        // Inline execution, like the server's workers: the contexts race
        // on the Plan only, never on the process pool's chunk handout.
        InlineExecutionGuard inline_guard;
        ExecContext ctx(plan);
        Tensor out({kBatch, plan->classes()});
        for (size_t it = 0; it < kIters; ++it) {
          ctx.run(x, out);
          for (size_t j = 0; j < want.numel(); ++j)
            if (out.at(j) != want.at(j)) ++mismatches;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), size_t{0}) << "backend '" << backend << "'";
  }
}

// --- Arena-slot poisoning (src/core/asan.hpp, exec_context.cpp) ------------
// Under ASan the engine poisons every arena slot between runs and re-kills
// each slot the moment its last reader retires, so a kernel consuming a
// DEAD slot faults instead of silently reading stale activations. These
// tests pin the contract from both sides: the arena really is poisoned
// when instrumented (and really is not when not), results are unaffected,
// and a deliberate dead-slot read dies with a use-after-poison report.

TEST(ExecContext, ArenaIsPoisonedBetweenRunsExactlyWhenInstrumented) {
  Rng rng(61);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto plan = Plan::compile(*model, kBatch, kInC, kHw, kHw);
  ExecContext ctx(plan);
  // Freshly constructed: every activation slot starts dead.
  EXPECT_EQ(asan_is_poisoned(ctx.workspace_data()), asan_enabled());

  Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
  const Tensor got = ctx.run(x);
  // Poisoning must be invisible in the results: a second context on a
  // separately compiled plan agrees bit-for-bit.
  ExecContext ref(toy_plan(*model));
  const Tensor want = ref.run(x);
  for (size_t i = 0; i < want.numel(); ++i)
    ASSERT_EQ(got.at(i), want.at(i)) << i;
  // Between runs the whole slot region is dead again — first byte of
  // every activation slot, not just the arena base.
  for (size_t s = 0; s < plan->activation_slots(); ++s)
    EXPECT_EQ(
        asan_is_poisoned(ctx.workspace_data() + s * plan->slot_stride()),
        asan_enabled())
        << "slot " << s + 1;
  // The conv scratch past the slots is never poisoned (GEMMs may read
  // their result region before first writing it).
  EXPECT_FALSE(asan_is_poisoned(ctx.workspace_data() + plan->col_offset()));
}

using ExecContextDeathTest = ::testing::Test;

TEST(ExecContextDeathTest, DeadSlotReadFaultsUnderAsan) {
  if (!asan_enabled()) {
    GTEST_SKIP() << "arena poisoning is armed only in ASan builds";
  }
  Rng rng(62);
  auto model = toy_model(rng);
  warm_bn(*model, rng);
  auto plan = Plan::compile(*model, kBatch, kInC, kHw, kHw);
  ExecContext ctx(plan);
  Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
  (void)ctx.run(x);
  // Every slot is dead after the run; touching one is exactly the bug the
  // poisoning exists to catch, and must die with a use-after-poison
  // report, not return stale activations.
  EXPECT_DEATH(
      {
        volatile float stale = ctx.workspace_data()[0];
        (void)stale;
      },
      "use-after-poison");
}

}  // namespace
}  // namespace alf
