// Seeded models, the image pool and the correctness oracle of the serving
// benchmark. Everything here is built at the paper's geometry (32x32x3
// input, base width 16, 10 classes) and compiled for batch 32.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan.hpp"
#include "nn/sequential.hpp"

namespace alfbench {

constexpr size_t kInC = 3;
constexpr size_t kHw = 32;
constexpr size_t kWidth = 16;
constexpr size_t kBatch = 32;
constexpr size_t kImageFloats = kInC * kHw * kHw;
/// Distinct seeded images the load draws from.
constexpr size_t kPoolImages = 64;
/// A full-batch request carries the kBatch pool images that follow one of
/// kBatchOffsets evenly spaced start images (wrapping at the pool's end),
/// so the oracle holds one batch reference per start.
constexpr size_t kBatchOffsets = 8;

/// Dense ResNet-20, or ResNet-20 built from AlfConv blocks.
enum class Family { kDense, kAlf };

/// A float model and its int8 twin, both compiled from one layer tree.
struct ModelPair {
  Family family;
  std::string f32;   ///< served model name of the float plan
  std::string int8;  ///< served model name of the int8 plan
};
const ModelPair& pair_of(Family f);

/// The seeded layer tree in eval-ready state: weights from `seed`,
/// BatchNorm statistics moved by two training-mode passes. ALF models get
/// the benchmark's mask rule: in every AlfConv, code filter i is kept iff
/// i % 3 == 0 (mask 1), every other code filter is pruned (mask 0).
std::unique_ptr<alf::Sequential> build_model(Family f, uint64_t seed);

/// Compiles one served plan at batch kBatch with the heuristic algorithm
/// choice, whatever $ALF_TUNE says, so plans and set-up time do not depend
/// on the environment.
std::shared_ptr<const alf::Plan> compile_plan(const alf::Sequential& model,
                                              bool int8,
                                              const std::string& name);

/// `n` distinct images, each uniform in [-1, 1), drawn from `seed`.
struct ImagePool {
  size_t n = 0;
  std::vector<float> data;  ///< [n, 3, 32, 32]
  const float* image(size_t i) const { return data.data() + i * kImageFloats; }
};
ImagePool make_pool(size_t n, uint64_t seed);

/// Start image of full-batch request start `j` (j < kBatchOffsets).
size_t batch_start(const ImagePool& pool, size_t j);

/// Per-model reference logits, computed apart from the serving path by a
/// fresh ExecContext over the served blob: one single-image run_rows per
/// pool image, and one kBatch run_rows per full-batch start. The daemon
/// runs a kBatch-image request as one engine run of exactly those rows, a
/// single-image request alone, so every served row of either dtype must
/// equal its reference bit for bit.
class Oracle {
 public:
  Oracle(std::string model, std::shared_ptr<const alf::Plan> plan,
         const ImagePool& pool);

  /// True when `out` (rows x classes floats), the answer to the `rows`
  /// pool images from image `first` on, equals its reference bit for bit:
  /// rows == 1 against the single-image run of image `first`, rows ==
  /// kBatch against the batch run from batch_start `first`. Otherwise
  /// prints each differing row's image index and largest deviation to
  /// stderr (first few only) and returns false.
  bool check(size_t first, size_t rows, const float* out) const;

  /// Checks every reference row, single-image and batch, against the
  /// layer tree's eval-mode forward of its image: float plans within
  /// kF32Tol (max abs error over max(1, max |logit|)), int8 plans within
  /// kInt8Tol (relative L2 error). Prints the worst deviation and how many
  /// batch rows differ from their image's single-image run; returns false
  /// past tolerance.
  bool check_against_tree(const std::vector<float>& tree_logits) const;

  const std::string& model() const { return model_; }
  size_t classes() const { return classes_; }
  /// Reference row of pool image `image` run alone.
  const float* ref(size_t image) const {
    return single_.data() + image * classes_;
  }
  /// Reference rows [kBatch, classes] of the batch from start `j`.
  const float* batch_ref(size_t j) const {
    return batch_.data() + j * kBatch * classes_;
  }

  static constexpr double kF32Tol = 1e-4;
  static constexpr double kInt8Tol = 0.08;

 private:
  std::string model_;
  bool int8_ = false;
  size_t classes_ = 0;
  size_t pool_n_ = 0;
  std::vector<size_t> starts_;  ///< batch_start of each batch reference
  std::vector<float> single_;   ///< [pool, classes]
  std::vector<float> batch_;    ///< [kBatchOffsets, kBatch, classes]
  // Receivers check concurrently.
  mutable std::atomic<size_t> reported_{0};
};

/// Eval-mode layer-tree logits [n, classes] of the whole pool.
std::vector<float> tree_logits(alf::Sequential& model, const ImagePool& pool);

/// Multiply-accumulates of one image through `plan` (conv + linear steps).
double macs_per_image(const alf::Plan& plan);

}  // namespace alfbench
