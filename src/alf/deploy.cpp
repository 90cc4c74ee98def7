#include "alf/deploy.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "tensor/ops.hpp"

namespace alf {

CompressedConvDesc describe_block(const AlfConv& block) {
  CompressedConvDesc d;
  d.name = block.name();
  d.ci = block.in_channels();
  d.co = block.out_channels();
  d.ccode = block.out_channels() - block.zero_filters();
  d.k = block.kernel();
  d.stride = block.stride();
  d.pad = block.pad();
  d.ccode_max = block.ccode_max();
  return d;
}

std::vector<CompressedConvDesc> collect_compressed_descs(Sequential& model) {
  std::vector<CompressedConvDesc> out;
  for (AlfConv* b : collect_alf_convs(model)) out.push_back(describe_block(*b));
  return out;
}

std::vector<size_t> deployed_filters(const AlfConv& block) {
  const Tensor mprune = block.compute_mprune();
  std::vector<size_t> kept;
  for (size_t i = 0; i < mprune.numel(); ++i)
    if (mprune.at(i) != 0.0f) kept.push_back(i);
  if (kept.empty()) {
    // Degenerate case: keep the strongest filter so the layer still works.
    size_t best = 0;
    float best_val = 0.0f;
    const Tensor& mask = block.mask();
    for (size_t i = 0; i < mask.numel(); ++i) {
      if (std::abs(mask.at(i)) >= best_val) {
        best_val = std::abs(mask.at(i));
        best = i;
      }
    }
    kept.push_back(best);
  }
  return kept;
}

LayerPtr make_deployed_unit(AlfConv& block, Rng& rng) {
  ALF_CHECK(block.bn_inter() == nullptr)
      << block.name() << ": BN_inter blocks are a training-only config";
  const std::vector<size_t> kept = deployed_filters(block);
  const size_t ccode = kept.size();
  const size_t ci = block.in_channels(), co = block.out_channels();
  const size_t k = block.kernel();

  auto unit = std::make_unique<Sequential>(block.name() + "_deployed");
  auto* code_conv = unit->emplace<Conv2d>(block.name() + "_code", ci, ccode,
                                          k, block.stride(), block.pad(),
                                          Init::kHe, rng);
  // Copy the surviving rows of Wcode (post mask & sigma_ae — the exact
  // weights the training-time conv used).
  const Tensor wcode = block.compute_wcode();  // [Co, Ci*K*K]
  const size_t row = ci * k * k;
  for (size_t r = 0; r < ccode; ++r) {
    const float* src = wcode.data() + kept[r] * row;
    std::copy(src, src + row, code_conv->weight().value.data() + r * row);
  }

  if (block.config().sigma_inter != Act::kNone) {
    unit->emplace<Activation>(block.name() + "_inter",
                              block.config().sigma_inter);
  }

  auto* exp_conv = unit->emplace<Conv2d>(block.name() + "_exp", ccode, co, 1,
                                         1, 0, Init::kHe, rng);
  // Wexp is stored [Co, Ccode=Co]; keep only the surviving input channels.
  const Tensor& wexp = block.wexp().value;
  for (size_t o = 0; o < co; ++o)
    for (size_t r = 0; r < ccode; ++r)
      exp_conv->weight().value.at(o * ccode + r) = wexp.at(o, kept[r]);
  return unit;
}

float deployment_error(AlfConv& block, const Tensor& input, Rng& rng) {
  LayerPtr deployed = make_deployed_unit(block, rng);
  Tensor a = block.forward(input, /*train=*/false);
  Tensor b = deployed->forward(input, /*train=*/false);
  ALF_CHECK(same_shape(a, b));
  float err = 0.0f;
  for (size_t i = 0; i < a.numel(); ++i)
    err = std::max(err, std::abs(a.at(i) - b.at(i)));
  return err;
}

namespace {

ModelCost apply_compression_impl(
    const ModelCost& vanilla, const std::string& new_name,
    const std::function<bool(const LayerCost&, size_t&)>& ccode_for) {
  ModelCost out;
  out.name = new_name;
  for (const LayerCost& l : vanilla.layers) {
    size_t ccode = 0;
    if (l.kind != "conv" || !ccode_for(l, ccode)) {
      out.layers.push_back(l);
      continue;
    }
    ALF_CHECK(ccode >= 1 && ccode <= l.co) << l.name;
    LayerCost code = l;
    code.kind = "conv_code";
    code.co = ccode;
    code.params = static_cast<unsigned long long>(l.k) * l.k * l.ci * ccode;
    code.macs = code.params * l.out_h * l.out_w;
    out.layers.push_back(code);

    LayerCost exp;
    exp.name = l.name + "_exp";
    exp.kind = "conv_exp";
    exp.ci = ccode;
    exp.co = l.co;
    exp.k = 1;
    exp.stride = 1;
    exp.out_h = l.out_h;
    exp.out_w = l.out_w;
    exp.params = static_cast<unsigned long long>(ccode) * l.co;
    exp.macs = exp.params * l.out_h * l.out_w;
    out.layers.push_back(exp);
  }
  return out;
}

}  // namespace

ModelCost apply_alf_compression(
    const ModelCost& vanilla,
    const std::map<std::string, size_t>& ccode_by_name,
    const std::string& new_name) {
  return apply_compression_impl(
      vanilla, new_name,
      [&ccode_by_name](const LayerCost& l, size_t& ccode) {
        auto it = ccode_by_name.find(l.name);
        if (it == ccode_by_name.end()) return false;
        ccode = it->second;
        return true;
      });
}

ModelCost apply_alf_fractions(
    const ModelCost& vanilla,
    const std::map<std::string, double>& frac_by_name,
    const std::string& new_name) {
  return apply_compression_impl(
      vanilla, new_name, [&frac_by_name](const LayerCost& l, size_t& ccode) {
        auto it = frac_by_name.find(l.name);
        if (it == frac_by_name.end()) return false;
        const double f = std::clamp(it->second, 0.0, 1.0);
        ccode = std::max<size_t>(
            1, static_cast<size_t>(std::lround(f * static_cast<double>(l.co))));
        return true;
      });
}

}  // namespace alf
