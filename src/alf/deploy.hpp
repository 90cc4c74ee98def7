// Deployment stage (Sec. III-C).
//
// After training, each ALF block is post-processed into a dense pair of
// standard convolutions: the code conv keeps only the Ccode' non-zero
// filters of Wcode, and the 1x1 expansion conv drops the corresponding
// (now unused) input channels of Wexp. The autoencoder (Wenc, Wdec, M) is
// discarded. The deployed unit is bit-compatible with the training-time
// block in eval mode (zeroed filters contribute nothing), which
// verify_deployment() checks numerically.
#pragma once

#include <map>

#include "alf/alf_conv.hpp"
#include "models/cost.hpp"

namespace alf {

/// Structural summary of one compressed layer.
struct CompressedConvDesc {
  std::string name;
  size_t ci = 0;
  size_t co = 0;
  size_t ccode = 0;  ///< non-zero code filters after pruning
  size_t k = 1;
  size_t stride = 1;
  size_t pad = 0;
  size_t ccode_max = 0;  ///< Eq. 2 efficiency bound
};

/// Descriptor of `block` in its current training state.
CompressedConvDesc describe_block(const AlfConv& block);

/// Descriptors of all ALF blocks of `model` in build order.
std::vector<CompressedConvDesc> collect_compressed_descs(Sequential& model);

/// Indices of the code filters kept at deployment: the non-zero entries of
/// Mprune, or the single largest-|m| filter if everything was pruned (so
/// the layer stays functional). Shared by make_deployed_unit and the
/// engine's AlfConv lowering.
std::vector<size_t> deployed_filters(const AlfConv& block);

/// Builds the dense deployed unit: Conv(ci -> ccode') [+ sigma_inter]
/// -> Conv1x1(ccode' -> co), with weights copied from the trained block.
/// Blocks with BN_inter enabled are not exportable (training-only config).
/// If every code filter was pruned, the single surviving filter with the
/// largest |mask| is retained so the layer stays functional.
LayerPtr make_deployed_unit(AlfConv& block, Rng& rng);

/// Max |output(deployed) - output(block in eval mode)| over a test input —
/// the structural-consistency check of the deployment stage.
float deployment_error(AlfConv& block, const Tensor& input, Rng& rng);

/// Rewrites a vanilla analytic cost with ALF compression applied: every conv
/// layer whose name appears in `ccode_by_name` becomes a code conv with
/// ccode filters plus a 1x1 expansion. Other layers are unchanged.
ModelCost apply_alf_compression(const ModelCost& vanilla,
                                const std::map<std::string, size_t>& ccode_by_name,
                                const std::string& new_name);

/// Same, but with per-layer *fractions* of remaining filters (used to carry
/// sparsity patterns measured at reduced scale onto a full-scale cost model).
/// ccode = max(1, round(frac * Co)). Layers absent from the map keep their
/// vanilla form.
ModelCost apply_alf_fractions(const ModelCost& vanilla,
                              const std::map<std::string, double>& frac_by_name,
                              const std::string& new_name);

}  // namespace alf
