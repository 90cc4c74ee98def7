#include "models.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "alf/alf_conv.hpp"
#include "engine/exec_context.hpp"
#include "models/zoo.hpp"

namespace alfbench {

using namespace alf;

const ModelPair& pair_of(Family f) {
  static const ModelPair dense{Family::kDense, "resnet20_f32", "resnet20_int8"};
  static const ModelPair alfp{Family::kAlf, "alf_resnet20_f32",
                              "alf_resnet20_int8"};
  return f == Family::kDense ? dense : alfp;
}

namespace {

void fill_uniform(float* dst, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i)
    dst[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

}  // namespace

std::unique_ptr<Sequential> build_model(Family f, uint64_t seed) {
  ModelConfig mc;
  mc.base_width = kWidth;
  mc.in_hw = kHw;
  mc.in_channels = kInC;
  Rng rng(seed);
  std::unique_ptr<Sequential> model;
  if (f == Family::kDense) {
    model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  } else {
    std::vector<AlfConv*> blocks;
    model = build_resnet20(mc, rng,
                           make_alf_conv_maker(AlfConfig{}, &rng, &blocks));
    for (AlfConv* b : blocks) {
      Tensor& m = b->mask();
      for (size_t i = 0; i < m.numel(); ++i) m.at(i) = i % 3 == 0 ? 1.0f : 0.0f;
    }
  }
  // Training-mode passes move BatchNorm statistics off (0, 1), so folding
  // at compile does real work.
  for (int pass = 0; pass < 2; ++pass) {
    Tensor x({8, kInC, kHw, kHw});
    fill_uniform(x.data(), x.numel(), rng);
    model->forward(x, /*train=*/true);
  }
  return model;
}

std::shared_ptr<const Plan> compile_plan(const Sequential& model, bool int8,
                                         const std::string& name) {
  EngineOptions opts;
  opts.backend = int8 ? "int8" : "";
  opts.bits = 8;
  opts.name = name;
  opts.tune = TuneMode::kHeuristic;
  return Plan::compile(model, kBatch, kInC, kHw, kHw, opts);
}

ImagePool make_pool(size_t n, uint64_t seed) {
  ImagePool pool;
  pool.n = n;
  pool.data.resize(n * kImageFloats);
  Rng rng(seed);
  fill_uniform(pool.data.data(), pool.data.size(), rng);
  return pool;
}

size_t batch_start(const ImagePool& pool, size_t j) {
  return j * pool.n / kBatchOffsets;
}

namespace {

/// max |a - b| over max(1, max |b|).
double scaled_max_error(const float* a, const float* b, size_t n) {
  double dev = 0.0, mag = 1.0;
  for (size_t c = 0; c < n; ++c) {
    dev = std::max(dev, std::abs(static_cast<double>(a[c]) - b[c]));
    mag = std::max(mag, std::abs(static_cast<double>(b[c])));
  }
  return dev / mag;
}

}  // namespace

Oracle::Oracle(std::string model, std::shared_ptr<const Plan> plan,
               const ImagePool& pool)
    : model_(std::move(model)),
      int8_(plan->quantized()),
      classes_(plan->classes()),
      pool_n_(pool.n) {
  // A fresh context over the served plan: the references never go
  // through batching, queues or the wire.
  ExecContext ctx(std::move(plan));
  single_.resize(pool.n * classes_);
  for (size_t i = 0; i < pool.n; ++i)
    ctx.run_rows(pool.image(i), 1, single_.data() + i * classes_);
  std::vector<float> x(kBatch * kImageFloats);
  batch_.resize(kBatchOffsets * kBatch * classes_);
  for (size_t j = 0; j < kBatchOffsets; ++j) {
    starts_.push_back(batch_start(pool, j));
    for (size_t r = 0; r < kBatch; ++r) {
      const float* img = pool.image((starts_[j] + r) % pool.n);
      std::copy(img, img + kImageFloats, x.data() + r * kImageFloats);
    }
    ctx.run_rows(x.data(), kBatch, batch_.data() + j * kBatch * classes_);
  }
}

bool Oracle::check(size_t first, size_t rows, const float* out) const {
  const float* want = nullptr;
  if (rows == 1 && first < pool_n_) want = ref(first);
  for (size_t j = 0; rows == kBatch && j < starts_.size(); ++j)
    if (starts_[j] == first) want = batch_ref(j);
  if (want == nullptr) {
    if (reported_.fetch_add(1) < 8)
      std::fprintf(stderr, "oracle: %s has no reference for %zu rows from "
                   "image %zu\n", model_.c_str(), rows, first);
    return false;
  }
  if (std::memcmp(want, out, rows * classes_ * sizeof(float)) == 0)
    return true;
  for (size_t r = 0; r < rows; ++r) {
    const float* a = out + r * classes_;
    const float* b = want + r * classes_;
    if (std::memcmp(a, b, classes_ * sizeof(float)) != 0 &&
        reported_.fetch_add(1) < 8)
      std::fprintf(stderr,
                   "oracle: %s image %zu differs from its reference, scaled "
                   "max error %.9g\n",
                   model_.c_str(), (first + r) % pool_n_,
                   scaled_max_error(a, b, classes_));
  }
  return false;
}

bool Oracle::check_against_tree(const std::vector<float>& tree) const {
  double worst = 0.0;
  size_t worst_image = 0, drifted = 0;
  const auto judge = [&](const float* a, size_t image) {
    const float* b = tree.data() + image * classes_;
    double err;
    if (int8_) {
      double num = 0.0, den = 0.0;
      for (size_t c = 0; c < classes_; ++c) {
        num += (a[c] - b[c]) * static_cast<double>(a[c] - b[c]);
        den += b[c] * static_cast<double>(b[c]);
      }
      err = std::sqrt(num / std::max(den, 1e-30));
    } else {
      err = scaled_max_error(a, b, classes_);
    }
    if (err > worst) {
      worst = err;
      worst_image = image;
    }
  };
  for (size_t i = 0; i < pool_n_; ++i) judge(ref(i), i);
  for (size_t j = 0; j < starts_.size(); ++j)
    for (size_t r = 0; r < kBatch; ++r) {
      const size_t image = (starts_[j] + r) % pool_n_;
      const float* row = batch_ref(j) + r * classes_;
      judge(row, image);
      drifted += std::memcmp(row, ref(image), classes_ * sizeof(float)) != 0;
    }
  const double tol = int8_ ? kInt8Tol : kF32Tol;
  std::fprintf(stderr, "oracle: %s vs layer tree: worst %s %.3g (image %zu, "
               "tolerance %.3g); %zu of %zu batch rows differ from the "
               "single-image run\n", model_.c_str(),
               int8_ ? "relative L2 error" : "scaled max error", worst,
               worst_image, tol, drifted, starts_.size() * kBatch);
  return worst <= tol;
}

std::vector<float> tree_logits(Sequential& model, const ImagePool& pool) {
  Tensor x({pool.n, kInC, kHw, kHw}, pool.data);
  const Tensor y = model.forward(x, /*train=*/false);
  return std::vector<float>(y.data(), y.data() + y.numel());
}

double macs_per_image(const Plan& plan) {
  double macs = 0.0;
  for (const Step& st : plan.steps()) {
    if (st.kind == OpKind::kConv)
      macs += static_cast<double>(st.out_c) * st.geom.col_rows() *
              st.geom.col_cols();
    else if (st.kind == OpKind::kLinear)
      macs += static_cast<double>(st.in_features) * st.out_features;
  }
  return macs;
}

}  // namespace alfbench
