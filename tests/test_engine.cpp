// Plan-based inference engine (Plan::compile + ExecContext): numerical
// equivalence with the layer tree,
// determinism across thread counts, arena reuse (including a global
// operator-new counter proving single-chunk runs allocate nothing), and BN
// folding.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "alf/deploy.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan.hpp"
#include "grad_check.hpp"
#include "kernels/backend.hpp"
#include "kernels/internal.hpp"
#include "models/zoo.hpp"

// Heap instrumentation for ExecContext::run's zero-allocation contract. The
// replacement operators serve the whole test binary; counting is gated so
// only the probed region pays attention.
namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched pair;
// the replacement set below is complete and malloc/free-consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (g_alloc_tracking.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz ? sz : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) { return operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace alf {
namespace {

using testing::random_input;

/// Runs a few training-mode forwards so BatchNorm running statistics move
/// away from their (0, 1) initialization — otherwise BN folding is trivial.
void warm_bn(Sequential& model, size_t in_c, size_t hw, Rng& rng) {
  for (int pass = 0; pass < 3; ++pass) {
    Tensor x = random_input({4, in_c, hw, hw}, rng);
    model.forward(x, /*train=*/true);
  }
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(same_shape(a, b));
  float m = 0.0f;
  for (size_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(a.at(i) - b.at(i)));
  return m;
}

constexpr size_t kHw = 16;
constexpr float kTol = 1e-5f;

TEST(Engine, ResNet20MatchesLayerTree) {
  Rng rng(31);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({5, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);

  auto plan = Plan::compile(*model, /*batch=*/8, mc.in_channels, kHw, kHw);
  EXPECT_EQ(plan->classes(), mc.classes);
  ExecContext ctx(plan);
  Tensor out({5, mc.classes});
  ctx.run(x, out);
  EXPECT_LT(max_abs_diff(ref, out), kTol);

  // BN is folded and every ReLU rides a kernel epilogue: the compiled plan
  // contains no standalone normalization or activation steps.
  for (const Step& st : plan->steps()) {
    EXPECT_NE(st.kind, OpKind::kScaleShift) << st.name;
    EXPECT_NE(st.kind, OpKind::kActivation) << st.name;
  }
}

TEST(Engine, Plain20MatchesLayerTree) {
  Rng rng(32);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_plain20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);
  ExecContext ctx(Plan::compile(*model, 4, mc.in_channels, kHw, kHw));
  Tensor out = ctx.run(x);
  EXPECT_LT(max_abs_diff(ref, out), kTol);
}

TEST(Engine, AlfDeployedModelMatchesEvalForward) {
  Rng rng(33);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  AlfConfig acfg;
  std::vector<AlfConv*> blocks;
  auto model =
      build_resnet20(mc, rng, make_alf_conv_maker(acfg, &rng, &blocks));
  ASSERT_FALSE(blocks.empty());
  // Force a nontrivial pruning pattern: clip a third of each block's mask
  // below the threshold so the deployed code conv really shrinks.
  for (AlfConv* b : blocks)
    for (size_t i = 0; i < b->mask().numel(); i += 3) b->mask().at(i) = 0.0f;
  for (AlfConv* b : blocks) EXPECT_GT(b->zero_filters(), size_t{0});
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({3, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);
  auto plan = Plan::compile(*model, /*batch=*/4, mc.in_channels, kHw, kHw);
  Tensor out = ExecContext(plan).run(x);
  EXPECT_LT(max_abs_diff(ref, out), kTol);

  // The plan contains the lowered dense pair per ALF block.
  size_t code_steps = 0, exp_steps = 0;
  for (const Step& st : plan->steps()) {
    if (st.name.find("_code") != std::string::npos) ++code_steps;
    if (st.name.find("_exp") != std::string::npos) ++exp_steps;
  }
  EXPECT_EQ(code_steps, blocks.size());
  EXPECT_EQ(exp_steps, blocks.size());
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  Rng rng(34);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Tensor x = random_input({6, mc.in_channels, kHw, kHw}, rng);

  set_parallel_threads(4);
  ExecContext ctx(Plan::compile(*model, 6, mc.in_channels, kHw, kHw));
  Tensor out4 = ctx.run(x);
  set_parallel_threads(1);
  Tensor out1 = ctx.run(x);
  // A plan compiled under a different thread setting partitions the batch
  // differently but must still produce the same bits per element.
  ExecContext ctx1(Plan::compile(*model, 6, mc.in_channels, kHw, kHw));
  Tensor out1c = ctx1.run(x);
  set_parallel_threads(0);

  for (size_t i = 0; i < out4.numel(); ++i) {
    EXPECT_EQ(out4.at(i), out1.at(i)) << i;
    EXPECT_EQ(out4.at(i), out1c.at(i)) << i;
  }
}

TEST(Engine, RepeatedRunsReuseArenaWithNoGrowth) {
  Rng rng(35);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  ExecContext ctx(Plan::compile(*model, 4, mc.in_channels, kHw, kHw));

  const float* arena = ctx.workspace_data();
  const size_t floats = ctx.workspace_floats();
  ASSERT_GT(floats, size_t{0});

  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  Tensor first = ctx.run(x);
  for (int i = 0; i < 3; ++i) {
    Tensor again = ctx.run(x);
    for (size_t j = 0; j < first.numel(); ++j)
      EXPECT_EQ(first.at(j), again.at(j));
    EXPECT_EQ(ctx.workspace_data(), arena);
    EXPECT_EQ(ctx.workspace_floats(), floats);
  }
}

TEST(Engine, SharedPlanAcrossContextsIsBitIdenticalAndNotDuplicated) {
  // The Plan/ExecContext split: contexts built on ONE compiled plan must
  // (a) share the immutable plan object (same steps storage, no weight
  // duplication), (b) own distinct arenas, and (c) produce the same bits
  // as each other.
  Rng rng(45);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  auto plan = Plan::compile(*model, 4, mc.in_channels, kHw, kHw);
  ExecContext original(plan);
  ExecContext alias_a(plan);
  ExecContext alias_b(plan);
  EXPECT_EQ(&alias_a.plan().steps(), &plan->steps());  // shared, not copied
  EXPECT_EQ(alias_a.plan_ptr().get(), alias_b.plan_ptr().get());
  EXPECT_NE(alias_a.workspace_data(), alias_b.workspace_data());
  EXPECT_EQ(alias_a.workspace_floats(), alias_b.workspace_floats());
  EXPECT_EQ(alias_a.workspace_floats(), plan->workspace_floats());

  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  const Tensor want = original.run(x);
  const Tensor got_a = alias_a.run(x);
  const Tensor got_b = alias_b.run(x);
  for (size_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(want.at(i), got_a.at(i)) << i;
    EXPECT_EQ(want.at(i), got_b.at(i)) << i;
  }
}

TEST(Engine, SharedPlanOutlivesTheFirstContext) {
  // A served model's lifetime is the Plan's, not any one context's: the
  // first context may be destroyed while other contexts on its plan live
  // on.
  Rng rng(46);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({2, mc.in_channels, kHw, kHw}, rng);
  std::shared_ptr<const Plan> plan;
  Tensor want;
  {
    ExecContext first(Plan::compile(*model, 2, mc.in_channels, kHw, kHw));
    plan = first.plan_ptr();
    want = first.run(x);
  }  // first context destroyed here
  ExecContext ctx(plan);
  const Tensor got = ctx.run(x);
  for (size_t i = 0; i < want.numel(); ++i) EXPECT_EQ(want.at(i), got.at(i));
}

TEST(Engine, SmallerBatchesRunOnTheSamePlan) {
  Rng rng(36);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  ExecContext ctx(Plan::compile(*model, 8, mc.in_channels, kHw, kHw));

  for (size_t n : {size_t{1}, size_t{3}, size_t{8}}) {
    Tensor x = random_input({n, mc.in_channels, kHw, kHw}, rng);
    const Tensor ref = model->forward(x, false);
    EXPECT_LT(max_abs_diff(ref, ctx.run(x)), kTol) << "batch " << n;
  }
  Tensor too_big = random_input({9, mc.in_channels, kHw, kHw}, rng);
  EXPECT_THROW(ctx.run(too_big), CheckError);
}

TEST(Engine, PartialBatchesBitIdenticalToExactlySizedPlan) {
  // A partial batch on a big-batch plan (a server's steady state)
  // must produce the same bits as a plan compiled exactly for that n —
  // including n == 1 and n == batch-1, where the compile-time chunk grid
  // of the two plans differs the most.
  Rng rng(43);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    ExecContext big(Plan::compile(*model, 8, mc.in_channels, kHw, kHw));
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}}) {
      ExecContext exact(Plan::compile(*model, n, mc.in_channels, kHw, kHw));
      Tensor x = random_input({n, mc.in_channels, kHw, kHw}, rng);
      const Tensor from_big = big.run(x);
      const Tensor from_exact = exact.run(x);
      ASSERT_TRUE(same_shape(from_big, from_exact));
      for (size_t i = 0; i < from_big.numel(); ++i)
        EXPECT_EQ(from_big.at(i), from_exact.at(i))
            << "threads " << threads << " n " << n << " elem " << i;
    }
  }
  set_parallel_threads(0);
}

TEST(Engine, MisShapedOutputTensorFailsLoudly) {
  // A wrong caller-provided `out` must throw before anything is written —
  // silently scribbling past a too-small buffer is the failure mode the
  // row-packed serving path cannot afford.
  Rng rng(44);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  ExecContext ctx(Plan::compile(*model, 4, mc.in_channels, kHw, kHw));
  const size_t classes = ctx.plan().classes();
  Tensor x = random_input({3, mc.in_channels, kHw, kHw}, rng);

  Tensor wrong_rows({2, classes});
  EXPECT_THROW(ctx.run(x, wrong_rows), CheckError);
  Tensor wrong_cols({3, classes + 1});
  EXPECT_THROW(ctx.run(x, wrong_cols), CheckError);
  Tensor wrong_rank({3 * classes});
  EXPECT_THROW(ctx.run(x, wrong_rank), CheckError);

  Tensor ok({3, classes});
  EXPECT_NO_THROW(ctx.run(x, ok));
}

TEST(Engine, BnFoldingMatchesUnfusedBn) {
  Rng rng(37);
  BatchNorm2d bn("bn", 6);
  // Move gamma/beta and the running stats off their initialization.
  for (size_t c = 0; c < 6; ++c) {
    bn.gamma().value.at(c) = 0.5f + 0.2f * static_cast<float>(c);
    bn.beta().value.at(c) = -0.3f + 0.1f * static_cast<float>(c);
    bn.mutable_running_mean().at(c) = 0.2f * static_cast<float>(c) - 0.5f;
    bn.mutable_running_var().at(c) = 0.5f + 0.3f * static_cast<float>(c);
  }
  Tensor x = random_input({2, 6, 5, 5}, rng);
  const Tensor ref = bn.forward(x, /*train=*/false);

  Tensor scale, shift;
  bn_fold_scale_shift(bn, scale, shift);
  float max_err = 0.0f;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t c = 0; c < 6; ++c) {
      for (size_t j = 0; j < 25; ++j) {
        const size_t idx = (i * 6 + c) * 25 + j;
        const float folded = x.at(idx) * scale.at(c) + shift.at(c);
        max_err = std::max(max_err, std::abs(folded - ref.at(idx)));
      }
    }
  }
  EXPECT_LT(max_err, kTol);
}

TEST(Engine, MaxPoolAndScaleShiftStepsLower) {
  // A topology the zoo does not cover: BN with no preceding conv (emits a
  // kScaleShift step) and a max-pool stage.
  Rng rng(38);
  auto model = std::make_unique<Sequential>("toy");
  model->emplace<BatchNorm2d>("bn0", 3);
  model->emplace<Conv2d>("c1", 3, 4, 3, 1, 1, Init::kHe, rng);
  model->emplace<BatchNorm2d>("c1_bn", 4);
  model->emplace<Activation>("c1_relu", Act::kRelu);
  model->emplace<MaxPool2d>("pool", 2);
  model->emplace<Flatten>("flatten");
  model->emplace<Linear>("fc", 4 * 8 * 8, 7, Init::kHe, rng);
  warm_bn(*model, 3, kHw, rng);

  Tensor x = random_input({3, 3, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, false);
  auto plan = Plan::compile(*model, 3, 3, kHw, kHw);
  Tensor out = ExecContext(plan).run(x);
  EXPECT_LT(max_abs_diff(ref, out), kTol);

  bool has_scale_shift = false, has_maxpool = false;
  for (const Step& st : plan->steps()) {
    has_scale_shift |= st.kind == OpKind::kScaleShift;
    has_maxpool |= st.kind == OpKind::kMaxPool;
  }
  EXPECT_TRUE(has_scale_shift);
  EXPECT_TRUE(has_maxpool);
}

TEST(Engine, PreActivationResidualBodyDoesNotFuseAcrossBlockInput) {
  // The body starts with BN + ReLU (pre-activation style): folding that BN
  // into the conv *before* the block would corrupt the tensor the identity
  // shortcut reads. The compiler's fusion fence must keep them separate.
  Rng rng(41);
  const size_t c = 6;
  auto model = std::make_unique<Sequential>("preact");
  model->emplace<Conv2d>("stem", 3, c, 3, 1, 1, Init::kHe, rng);
  auto body = std::make_unique<Sequential>("body");
  body->emplace<BatchNorm2d>("body_bn", c);
  body->emplace<Activation>("body_relu", Act::kRelu);
  body->emplace<Conv2d>("body_conv", c, c, 3, 1, 1, Init::kHe, rng);
  model->emplace<ResidualBlock>("block", std::move(body), nullptr);
  warm_bn(*model, 3, kHw, rng);

  Tensor x = random_input({2, 3, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);
  ExecContext ctx(Plan::compile(*model, 2, 3, kHw, kHw));
  // ref is [N, C, H, W]; the plan reports the final buffer as classes.
  Tensor out({2, ctx.plan().classes()});
  ctx.run(x, out);
  float max_err = 0.0f;
  for (size_t i = 0; i < ref.numel(); ++i)
    max_err = std::max(max_err, std::abs(ref.at(i) - out.at(i)));
  EXPECT_LT(max_err, kTol);
}

TEST(Engine, SingleChunkRunPerformsZeroHeapAllocations) {
  Rng rng(42);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  set_parallel_threads(1);  // single-chunk partition at compile
  // The float plan and the int8 plan (padded-plane quantization + gathered
  // qgemm panels) keep the same run contract.
  for (const char* backend : {"", "int8"}) {
    EngineOptions opts;
    opts.backend = backend;
    ExecContext ctx(Plan::compile(*model, 8, mc.in_channels, kHw, kHw, opts));
    Tensor x = random_input({8, mc.in_channels, kHw, kHw}, rng);
    Tensor out({8, ctx.plan().classes()});
    ctx.run(x, out);  // warm

    g_alloc_count.store(0);
    g_alloc_tracking.store(true);
    ctx.run(x, out);
    g_alloc_tracking.store(false);
    EXPECT_EQ(g_alloc_count.load(), size_t{0}) << "backend '" << backend << "'";
  }
  set_parallel_threads(0);
}

TEST(Engine, PlanStrNamesEveryStep) {
  Rng rng(39);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  auto plan = Plan::compile(*model, 2, mc.in_channels, kHw, kHw);
  const std::string text = plan->str();
  EXPECT_NE(text.find("conv1"), std::string::npos);
  EXPECT_NE(text.find("fc"), std::string::npos);
  EXPECT_EQ(plan->steps().front().name.rfind("conv1", 0), size_t{0});
}

TEST(Engine, ExplicitBackendSelectionAtCompileTime) {
  Rng rng(41);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);

  auto scalar_plan =
      Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                    {.backend = "scalar", .bits = 8, .name = ""});
  EXPECT_STREQ(scalar_plan->backend_name(), "scalar");
  EXPECT_FALSE(scalar_plan->quantized());
  const Tensor ref = ExecContext(scalar_plan).run(x);

  if (kernels::find_backend("simd") != nullptr) {
    auto simd_plan = Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                                   {.backend = "simd", .bits = 8, .name = ""});
    EXPECT_STREQ(simd_plan->backend_name(), "simd");
    const Tensor got = ExecContext(simd_plan).run(x);
    // Different float kernels, same math: agreement to a loose epsilon.
    EXPECT_LE(max_abs_diff(ref, got), 1e-3f);
  }

  EXPECT_THROW(
      Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                    {.backend = "no-such-backend", .bits = 8, .name = ""}),
      CheckError);
}

TEST(Engine, Int8PlanLowersConvAndLinearToQgemm) {
  Rng rng(43);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  auto plan = Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                            {.backend = "int8", .bits = 8, .name = ""});
  EXPECT_TRUE(plan->quantized());
  EXPECT_STREQ(plan->backend_name(), "int8");
  size_t quantized_steps = 0;
  for (const Step& st : plan->steps()) {
    if (st.kind == OpKind::kConv || st.kind == OpKind::kLinear) {
      EXPECT_TRUE(st.quantized) << st.name;
      EXPECT_FALSE(st.shift_gemm) << st.name;  // im2col path only
      const size_t rows = st.kind == OpKind::kConv ? st.out_c
                                                   : st.out_features;
      const size_t cols = st.kind == OpKind::kConv ? st.geom.col_rows()
                                                   : st.in_features;
      EXPECT_EQ(st.qw.size(), rows * cols) << st.name;
      ASSERT_EQ(st.qw_scales.size(), rows) << st.name;
      for (const float sc : st.qw_scales) EXPECT_GT(sc, 0.0f) << st.name;
      // The float weights are released — the plan carries int8 only.
      EXPECT_TRUE(st.w.empty()) << st.name;
      ++quantized_steps;
    } else {
      EXPECT_FALSE(st.quantized) << st.name;
    }
  }
  EXPECT_GE(quantized_steps, size_t{20});  // 19+ convs and the FC head
  EXPECT_NE(plan->str().find("qgemm-int8"), std::string::npos);
}

TEST(Engine, Int8EngineAgreesWithFloatEngineOnTop1) {
  Rng rng(45);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  const size_t n = 32;
  Tensor x = random_input({n, mc.in_channels, kHw, kHw}, rng);

  auto fp = Plan::compile(*model, n, mc.in_channels, kHw, kHw);
  auto q8 = Plan::compile(*model, n, mc.in_channels, kHw, kHw,
                          {.backend = "int8", .bits = 8, .name = ""});
  const Tensor ref = ExecContext(fp).run(x);
  const Tensor got = ExecContext(q8).run(x);
  size_t agree = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t ra = 0, ga = 0;
    for (size_t c = 1; c < fp->classes(); ++c) {
      if (ref.at(i, c) > ref.at(i, ra)) ra = c;
      if (got.at(i, c) > got.at(i, ga)) ga = c;
    }
    if (ra == ga) ++agree;
  }
  // 8-bit dynamic activation quantization is near-lossless on an untrained
  // net's logits; allow at most one near-tie flip on this batch so the
  // test is robust to compiler codegen differences (the bench measures the
  // strict >= 99% criterion on a trained model at 256 images).
  EXPECT_GE(agree + 1, n);
}

TEST(Engine, Int8EngineBitIdenticalAcrossThreadCounts) {
  Rng rng(47);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Tensor x = random_input({6, mc.in_channels, kHw, kHw}, rng);

  set_parallel_threads(1);
  ExecContext ctx(Plan::compile(*model, 6, mc.in_channels, kHw, kHw,
                                {.backend = "int8", .bits = 8, .name = ""}));
  const Tensor ref = ctx.run(x);
  for (const int threads : {2, 4}) {
    set_parallel_threads(threads);
    // The chunk grid (and thus every activation scale) is fixed at compile
    // time, so a plan compiled at 1 thread must reproduce exactly.
    const Tensor got = ctx.run(x);
    EXPECT_EQ(max_abs_diff(ref, got), 0.0f) << threads << " threads";
  }
  set_parallel_threads(0);
}

TEST(Engine, NarrowBitWidthsDegradeGracefully) {
  Rng rng(49);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref =
      ExecContext(Plan::compile(*model, 4, mc.in_channels, kHw, kHw)).run(x);
  double err8 = 0.0, err4 = 0.0;
  for (const int bits : {8, 4}) {
    auto q = Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                           {.backend = "int8", .bits = bits, .name = ""});
    const Tensor got = ExecContext(q).run(x);
    double err = 0.0;
    for (size_t i = 0; i < ref.numel(); ++i) {
      const double d = static_cast<double>(ref.at(i)) - got.at(i);
      err += d * d;
    }
    (bits == 8 ? err8 : err4) = err;
  }
  EXPECT_GT(err8, 0.0);   // a real integer datapath is not exact
  EXPECT_GT(err4, err8);  // and fewer bits hurt more (Table 3 direction)
  EXPECT_THROW(Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                             {.backend = "int8", .bits = 1, .name = ""}),
               CheckError);
}

TEST(Engine, RowsBitIdenticalAcrossBatchPackingsAtPaperGeometry) {
  // ExecContext's contract: a row's logits do not depend on which images
  // share its batch. Checked at the paper's geometry because toy widths
  // never reach the GEMM sizes where a size-based kernel switch could
  // change the rounding of one batch size but not another (the classifier
  // GEMM is m = batch, k = 64, n = 10 here), for float and int8 plans (the
  // int8 convs gather qgemm panels that straddle images at other batch
  // sizes).
  constexpr size_t kPaperHw = 32, kPaperBatch = 32;
  for (const bool alf_model : {false, true}) {
    Rng rng(63);
    ModelConfig mc;
    mc.base_width = 16;
    mc.in_hw = kPaperHw;
    std::vector<AlfConv*> blocks;
    auto model =
        alf_model
            ? build_resnet20(mc, rng, make_alf_conv_maker({}, &rng, &blocks))
            : build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
    for (AlfConv* b : blocks)
      for (size_t i = 0; i < b->mask().numel(); i += 3) b->mask().at(i) = 0.0f;
    warm_bn(*model, mc.in_channels, kPaperHw, rng);
    const Tensor x =
        random_input({kPaperBatch, mc.in_channels, kPaperHw, kPaperHw}, rng);

    for (const char* backend : {"", "int8"}) {
      for (const int threads : {1, 4}) {
        set_parallel_threads(threads);
        EngineOptions opts;
        opts.backend = backend;
        auto plan = Plan::compile(*model, kPaperBatch, mc.in_channels,
                                  kPaperHw, kPaperHw, opts);
        ExecContext ctx(plan);
        const size_t img = plan->image_floats(), cls = plan->classes();
        std::vector<float> alone(kPaperBatch * cls), packed(kPaperBatch * cls);
        for (size_t i = 0; i < kPaperBatch; ++i)
          ctx.run_rows(x.data() + i * img, 1, alone.data() + i * cls);
        for (const size_t n : {size_t{7}, kPaperBatch}) {
          ctx.run_rows(x.data(), n, packed.data());
          for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(std::memcmp(packed.data() + i * cls,
                                  alone.data() + i * cls, cls * sizeof(float)),
                      0)
                << (alf_model ? "alf_resnet20" : "resnet20") << " backend '"
                << plan->backend_name() << "' threads " << threads << " n "
                << n << " row " << i;
        }
      }
    }
    set_parallel_threads(0);
  }
}

/// The int8 conv lowering before it gathered qgemm panels from padded
/// planes, rebuilt from public pieces: float im2col of every image, one
/// max-abs scale per image quantizing its column block, the matrix qgemm
/// oracle, the bias/act epilogue and the NCHW scatter. `x` is the step's
/// input (n images).
std::vector<float> reference_int8_conv(const Step& st, const float* x,
                                       size_t n) {
  const ConvGeom& g = st.geom;
  const size_t rows = g.col_rows(), cols = g.col_cols(), ld = n * cols;
  std::vector<float> col(rows * ld);
  for (size_t j = 0; j < n; ++j)
    im2col_view(x + j * st.in_sz, g, col.data() + j * cols, ld);
  const int32_t levels = (1 << (st.qbits - 1)) - 1;
  const float span = static_cast<float>(st.in_nonneg ? 2 * levels : levels);
  const int32_t zp = st.in_nonneg ? -levels : 0;
  std::vector<int8_t> q(rows * ld);
  std::vector<float> bscales(ld);
  for (size_t j = 0; j < n; ++j) {
    float amax = 0.0f;
    kernels::max_abs_col_blocks(x + j * st.in_sz, 1, 0, st.in_sz, 1, &amax);
    const float scale = amax > 0.0f ? amax / span : 1.0f;
    for (size_t r = 0; r < rows; ++r)
      kernels::quantize_row_i8(col.data() + r * ld + j * cols,
                               q.data() + r * ld + j * cols, cols,
                               1.0f / scale, zp, levels);
    std::fill(bscales.begin() + j * cols, bscales.begin() + (j + 1) * cols,
              scale);
  }
  kernels::QgemmParams p;
  p.a_scales = st.qw_scales.data();
  p.b_scales = bscales.data();
  p.b_zp = zp;
  std::vector<float> res(st.out_c * ld);
  kernels::detail::qgemm_int8(st.qw.data(), rows, q.data(), ld, res.data(), ld,
                              st.out_c, rows, ld, p);
  bias_act_inplace(res.data(), st.out_c, ld,
                   st.bias.empty() ? nullptr : st.bias.data(), st.act);
  std::vector<float> out(n * st.out_sz);
  for (size_t j = 0; j < n; ++j)
    for (size_t o = 0; o < st.out_c; ++o)
      std::memcpy(out.data() + j * st.out_sz + o * cols,
                  res.data() + o * ld + j * cols, cols * sizeof(float));
  return out;
}

TEST(Engine, Int8ConvLoweringMatchesMaterializedUnfold) {
  // Every quantized backend's one-pass conv lowering (padded int8 planes,
  // B panels gathered by the kernel) against the materialized unfold:
  // memcmp-equal over kernel/stride/pad/map shapes, odd channel counts,
  // both activation grids, batch sizes and chunk grids. Under
  // ALF_CPU_DISABLE the "int8" dispatcher resolves to each kernel in turn.
  struct Map {
    size_t h, w;
  };
  constexpr Map kMaps[] = {{1, 1}, {5, 7}, {8, 8}, {16, 16}, {32, 32}};
  constexpr size_t kCi[] = {6, 11, 22, 3, 7};
  constexpr size_t kCo[] = {11, 22, 6, 5, 9};
  constexpr size_t kBatches[] = {1, 7, 32};
  std::vector<std::string> backends;
  for (const char* name : {"int8", "int8-avx2", "int8-vnni"})
    if (kernels::find_backend(name) != nullptr) backends.push_back(name);
  size_t idx = 0, cases = 0;
  for (const Map& map : kMaps)
    for (const size_t k : {1, 3, 5})
      for (const size_t stride : {1, 2})
        for (const size_t pad : {0, 1, 2}) {
          if (map.h + 2 * pad < k || map.w + 2 * pad < k) continue;
          ++idx;
          const size_t ci = kCi[idx % 5], co = kCo[(idx / 5) % 5];
          const bool nonneg = idx % 2 == 0;
          const Act act = idx % 3 == 0 ? Act::kNone : Act::kRelu;
          // Largest batch of the rotation whose reference unfold stays
          // small; 32x32 maps run at batch 7 or 1.
          ConvGeom g{.in_c = ci, .in_h = map.h, .in_w = map.w, .kernel = k,
                     .stride = stride, .pad = pad};
          size_t batch = 1;
          for (size_t b = 0; b < 3; ++b) {
            batch = kBatches[(idx + b) % 3];
            if (g.col_rows() * g.col_cols() * batch <= (size_t{1} << 21)) break;
          }
          Rng rng(1000 + idx);
          Sequential model;
          if (nonneg) model.emplace<Activation>("relu0", Act::kRelu);
          model.emplace<Conv2d>("conv", ci, co, k, stride, pad, Init::kHe, rng);
          model.emplace<BatchNorm2d>("bn", co);
          if (act == Act::kRelu) model.emplace<Activation>("relu", Act::kRelu);
          model.forward(random_input({4, ci, map.h, map.w}, rng), true);
          const Tensor x = random_input({batch, ci, map.h, map.w}, rng);
          Tensor step_in = x;
          if (nonneg)
            for (size_t i = 0; i < step_in.numel(); ++i)
              step_in.at(i) = std::max(step_in.at(i), 0.0f);
          for (const std::string& backend : backends) {
            for (const int threads : {1, 3}) {
              set_parallel_threads(threads);
              EngineOptions opts;
              opts.backend = backend;
              opts.tune = TuneMode::kHeuristic;
              auto plan = Plan::compile(model, batch, ci, map.h, map.w, opts);
              ExecContext ctx(plan);
              const Tensor got = ctx.run(x);
              const Step* st = nullptr;
              for (const Step& s : plan->steps())
                if (s.kind == OpKind::kConv) st = &s;
              ASSERT_NE(st, nullptr);
              ASSERT_EQ(st->in_nonneg, nonneg);
              const std::vector<float> want =
                  reference_int8_conv(*st, step_in.data(), batch);
              ASSERT_EQ(got.numel(), want.size());
              ++cases;
              if (std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)) != 0) {
                size_t first = 0;
                while (got.at(first) == want[first]) ++first;
                ADD_FAILURE()
                    << "repro: backend=" << backend << " map=" << map.h << "x"
                    << map.w << " k=" << k << " stride=" << stride
                    << " pad=" << pad << " ci=" << ci << " co=" << co
                    << " nonneg=" << nonneg << " batch=" << batch
                    << " threads=" << threads << " chunks=" << plan->chunks()
                    << " first diff at " << first << ": " << got.at(first)
                    << " vs " << want[first];
              }
            }
          }
        }
  set_parallel_threads(0);
  EXPECT_GT(cases, size_t{150});
}

}  // namespace

/// Test-only friend of Plan (declared in plan.hpp): corruption fixtures
/// need a mutable view of a compiled plan's internals to prove verify()
/// rejects each broken invariant. Nothing outside the tests defines this.
struct PlanTestPeer {
  static Plan& mut(const std::shared_ptr<const Plan>& p) {
    return const_cast<Plan&>(*p);
  }
  static std::vector<Step>& steps(Plan& p) { return p.steps_; }
  static size_t& slots(Plan& p) { return p.slots_; }
  static size_t& slot_stride(Plan& p) { return p.slot_stride_; }
  static size_t& col_off(Plan& p) { return p.col_off_; }
  static size_t& res_off(Plan& p) { return p.res_off_; }
  static size_t& res_sz(Plan& p) { return p.res_sz_; }
  static size_t& classes(Plan& p) { return p.classes_; }
  static size_t& qws_sz(Plan& p) { return p.qws_sz_; }
  static bool& quantized(Plan& p) { return p.quant_; }
  static const kernels::KernelBackend*& backend(Plan& p) {
    return p.backend_;
  }
};

namespace {

/// One compiled ResNet-20 fixture per corruption case (the mutations are
/// destructive, so every case starts from a fresh compile).
std::shared_ptr<const Plan> verify_fixture(const char* backend = "") {
  Rng rng(53);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  return Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                       {.backend = backend, .bits = 8, .name = ""});
}

/// EXPECT wrapper asserting the typed error and the invariant it names.
void expect_verify_rejects(const std::shared_ptr<const Plan>& plan,
                           const char* needle) {
  try {
    plan->verify();
    FAIL() << "verify() accepted a plan corrupted at: " << needle;
  } catch (const PlanVerifyError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "wrong invariant reported: " << e.what();
  }
}

TEST(PlanVerify, AcceptsEveryZooModelFloatAndInt8) {
  Rng rng(57);
  struct Case {
    const char* name;
    std::unique_ptr<Sequential> model;
    ModelConfig mc;
  };
  std::vector<Case> cases;
  {
    ModelConfig mc;
    mc.base_width = 8;
    mc.in_hw = kHw;
    cases.push_back({"plain20",
                     build_plain20(mc, rng,
                                   standard_conv_maker(mc.init, &rng)),
                     mc});
    cases.push_back({"resnet20",
                     build_resnet20(mc, rng,
                                    standard_conv_maker(mc.init, &rng)),
                     mc});
  }
  {
    ModelConfig mc;
    mc.base_width = 4;  // keep the 4-stage net small; in_hw stays 32
    cases.push_back({"resnet18",
                     build_resnet18(mc, rng,
                                    standard_conv_maker(mc.init, &rng)),
                     mc});
  }
  for (Case& c : cases) {
    warm_bn(*c.model, c.mc.in_channels, c.mc.in_hw, rng);
    for (const char* backend : {"", "int8"}) {
      auto plan =
          Plan::compile(*c.model, 4, c.mc.in_channels, c.mc.in_hw, c.mc.in_hw,
                        {.backend = backend, .bits = 8, .name = ""});
      EXPECT_NO_THROW(plan->verify())
          << c.name << " backend='" << backend << "'";
    }
  }
}

TEST(PlanVerify, RejectsEmptyStepList) {
  auto plan = verify_fixture();
  PlanTestPeer::steps(PlanTestPeer::mut(plan)).clear();
  expect_verify_rejects(plan, "empty step list");
}

TEST(PlanVerify, RejectsOutOfRangeSlot) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  PlanTestPeer::steps(p)[0].out = plan->activation_slots() + 5;
  expect_verify_rejects(plan, "out of range");
}

TEST(PlanVerify, RejectsReadOfDeadSlot) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  // The first step's input is the external image (slot 0); pointing it at
  // its own not-yet-written output slot is a use-before-def.
  Step& st = PlanTestPeer::steps(p)[0];
  st.in = st.out;
  expect_verify_rejects(plan, "no live activation");
}

TEST(PlanVerify, RejectsBrokenShapeChain) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  // Step 1 consumes step 0's activation; shrinking its declared input
  // breaks the producer/consumer size chain.
  PlanTestPeer::steps(p)[1].in_sz -= 1;
  expect_verify_rejects(plan, "live value");
}

TEST(PlanVerify, RejectsResidualAliasedOperands) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  bool found = false;
  for (Step& st : PlanTestPeer::steps(p)) {
    if (st.kind != OpKind::kAdd) continue;
    st.in = st.out;  // out = act(out + in) degenerates to doubling
    found = true;
    break;
  }
  ASSERT_TRUE(found) << "ResNet plan compiled without a residual add";
  expect_verify_rejects(plan, "same slot");
}

TEST(PlanVerify, RejectsArenaLayoutBreaks) {
  {
    auto plan = verify_fixture();
    PlanTestPeer::col_off(PlanTestPeer::mut(plan)) += 64;
    expect_verify_rejects(plan, "does not abut");
  }
  {
    auto plan = verify_fixture();
    Plan& p = PlanTestPeer::mut(plan);
    // Shrink every slot below one batch of the first activation, keeping
    // the scratch offsets consistent so the stride check itself fires.
    PlanTestPeer::slot_stride(p) = 1;
    PlanTestPeer::col_off(p) = plan->activation_slots();
    PlanTestPeer::res_off(p) =
        plan->activation_slots() + plan->chunks() * plan->col_floats();
    expect_verify_rejects(plan, "slot stride");
  }
  {
    auto plan = verify_fixture();
    PlanTestPeer::res_sz(PlanTestPeer::mut(plan)) = 0;
    expect_verify_rejects(plan, "scratch");
  }
}

TEST(PlanVerify, RejectsWrongWeightPanelShape) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_EQ(st.kind, OpKind::kConv);
  // Same arena bytes, lying dims: the view/section cross-check would also
  // object, but the shape replay must name the specific invariant first.
  st.w = TensorView(st.w.data(), {st.out_c, st.geom.col_rows() + 1});
  expect_verify_rejects(plan, "Co, Ci*K*K");
}

TEST(PlanVerify, RejectsTruncatedBias) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_EQ(st.kind, OpKind::kConv);
  st.bias = TensorView(st.bias.data(), {st.out_c + 1});
  expect_verify_rejects(plan, "bias");
}

TEST(PlanVerify, RejectsUnpinnedOrStaleBackend) {
  auto plan = verify_fixture();
  PlanTestPeer::backend(PlanTestPeer::mut(plan)) = nullptr;
  expect_verify_rejects(plan, "no kernel backend");
}

TEST(PlanVerify, RejectsDatapathFlagMismatch) {
  auto plan = verify_fixture();
  PlanTestPeer::quantized(PlanTestPeer::mut(plan)) = true;
  expect_verify_rejects(plan, "datapath");
}

TEST(PlanVerify, RejectsWrongClassCount) {
  auto plan = verify_fixture();
  PlanTestPeer::classes(PlanTestPeer::mut(plan)) += 1;
  expect_verify_rejects(plan, "classes");
}

TEST(PlanVerify, RejectsInt8StepWithoutScales) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  st.qw_scales = ConstSpan<float>(st.qw_scales.data(),
                                  st.qw_scales.size() - 1);
  expect_verify_rejects(plan, "scale");
}

TEST(PlanVerify, RejectsInt8NonFiniteScale) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  // Freshly compiled plans own their (writable) arena; scribble through
  // the const view the way a corrupted blob would arrive.
  const_cast<float*>(st.qw_scales.data())[0] = 0.0f;
  expect_verify_rejects(plan, "scale");
}

TEST(PlanVerify, RejectsInt8TruncatedPanel) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  st.qw = ConstSpan<int8_t>(st.qw.data(), st.qw.size() - 1);
  expect_verify_rejects(plan, "panel");
}

TEST(PlanVerify, RejectsInt8RetainedFloatWeights) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  // Any non-empty float view marks the weights as retained; verify must
  // object before ever dereferencing it.
  st.w = TensorView(st.qw_scales.data(), {st.out_c, st.geom.col_rows()});
  expect_verify_rejects(plan, "not released");
}

TEST(PlanVerify, RejectsInt8UndersizedScratch) {
  auto plan = verify_fixture("int8");
  PlanTestPeer::qws_sz(PlanTestPeer::mut(plan)) = 1;
  expect_verify_rejects(plan, "scratch");
}

TEST(PlanVerify, RejectsBadQuantBits) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  PlanTestPeer::steps(p)[0].qbits = 11;
  expect_verify_rejects(plan, "bits");
}

}  // namespace
}  // namespace alf
