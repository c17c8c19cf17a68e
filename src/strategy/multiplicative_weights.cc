#include "strategy/multiplicative_weights.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle {

MultiplicativeWeights::MultiplicativeWeights(size_t num_experts,
                                             double epsilon,
                                             double weight_floor_ratio)
    : weights_(num_experts, 1.0), epsilon_(epsilon),
      weight_floor_ratio_(weight_floor_ratio),
      total_weight_(static_cast<double>(num_experts)) {
  CACKLE_CHECK_GT(num_experts, 0u);
  CACKLE_CHECK_GT(epsilon, 0.0);
  CACKLE_CHECK_LE(epsilon, 0.5);
  CACKLE_CHECK_GE(weight_floor_ratio, 0.0);
  CACKLE_CHECK_LT(weight_floor_ratio, 1.0);
}

void MultiplicativeWeights::Normalize() {
  // Renormalize so the mean weight is 1, preventing underflow over long
  // horizons. Relative proportions (and hence sampling) are unchanged.
  const double scale =
      static_cast<double>(weights_.size()) / total_weight_;
  for (double& w : weights_) w *= scale;
  total_weight_ = static_cast<double>(weights_.size());
}

void MultiplicativeWeights::Update(const std::vector<double>& penalties) {
  CACKLE_CHECK_EQ(penalties.size(), weights_.size());
  // Two passes: scale every weight and find the maximum, then apply the
  // floor (when set) while summing the total. Weights are never negative,
  // so a positive maximum means a positive total.
  double max_weight = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    const double penalty = std::clamp(penalties[i], 0.0, 1.0);
    weights_[i] *= (1.0 - epsilon_ * penalty);
    max_weight = std::max(max_weight, weights_[i]);
  }
  CACKLE_CHECK_GT(max_weight, 0.0);
  // Summed in a local, in index order: the member would be stored back
  // every step, since the weights might alias it.
  double total = 0.0;
  if (weight_floor_ratio_ > 0.0) {
    const double floor = weight_floor_ratio_ * max_weight;
    for (double& w : weights_) {
      w = std::max(w, floor);
      total += w;
    }
  } else {
    for (double w : weights_) total += w;
  }
  total_weight_ = total;
  ++rounds_;
  if ((rounds_ & 0x3F) == 0 ||
      total_weight_ < 1e-100 * static_cast<double>(weights_.size())) {
    Normalize();
  }
}

size_t MultiplicativeWeights::Sample(Rng* rng) const {
  const double r = rng->NextDouble() * total_weight_;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    cumulative += weights_[i];
    if (r < cumulative) return i;
  }
  return weights_.size() - 1;  // floating-point edge
}

size_t MultiplicativeWeights::Best() const {
  size_t best = 0;
  for (size_t i = 1; i < weights_.size(); ++i) {
    if (weights_[i] > weights_[best]) best = i;
  }
  return best;
}

double MultiplicativeWeights::Probability(size_t i) const {
  CACKLE_CHECK_LT(i, weights_.size());
  return weights_[i] / total_weight_;
}

}  // namespace cackle
