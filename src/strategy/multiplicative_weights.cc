#include "strategy/multiplicative_weights.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle {

MultiplicativeWeights::MultiplicativeWeights(size_t num_experts,
                                             double epsilon,
                                             double weight_floor_ratio)
    : weights_(num_experts, 1.0), prefix_(num_experts), epsilon_(epsilon),
      weight_floor_ratio_(weight_floor_ratio),
      total_weight_(static_cast<double>(num_experts)) {
  CACKLE_CHECK_GT(num_experts, 0u);
  CACKLE_CHECK_GT(epsilon, 0.0);
  CACKLE_CHECK_LE(epsilon, 0.5);
  CACKLE_CHECK_GE(weight_floor_ratio, 0.0);
  CACKLE_CHECK_LT(weight_floor_ratio, 1.0);
  for (size_t i = 0; i < num_experts; ++i) {
    prefix_[i] = static_cast<double>(i + 1);
  }
}

void MultiplicativeWeights::Normalize() {
  // Renormalize so the mean weight is 1, preventing underflow over long
  // horizons. Relative proportions (and hence sampling) are unchanged.
  const double scale =
      static_cast<double>(weights_.size()) / total_weight_;
  double total = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] *= scale;
    total += weights_[i];
    prefix_[i] = total;
  }
  total_weight_ = static_cast<double>(weights_.size());
}

void MultiplicativeWeights::Update(const std::vector<double>& penalties) {
  CACKLE_CHECK_EQ(penalties.size(), weights_.size());
  // Two passes: scale every weight and find the maximum, then apply the
  // floor (when set) while summing the total. Weights are never negative,
  // so a positive maximum means a positive total. A maximum is exact in
  // any order, so four independent running maxima share the work.
  const size_t n = weights_.size();
  double* w = weights_.data();
  const double* p = penalties.data();
  const double epsilon = epsilon_;
  const auto scale = [epsilon](double weight, double penalty) {
    return weight * (1.0 - epsilon * std::clamp(penalty, 0.0, 1.0));
  };
  double max0 = 0.0, max1 = 0.0, max2 = 0.0, max3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    w[i] = scale(w[i], p[i]);
    w[i + 1] = scale(w[i + 1], p[i + 1]);
    w[i + 2] = scale(w[i + 2], p[i + 2]);
    w[i + 3] = scale(w[i + 3], p[i + 3]);
    max0 = std::max(max0, w[i]);
    max1 = std::max(max1, w[i + 1]);
    max2 = std::max(max2, w[i + 2]);
    max3 = std::max(max3, w[i + 3]);
  }
  for (; i < n; ++i) {
    w[i] = scale(w[i], p[i]);
    max0 = std::max(max0, w[i]);
  }
  const double max_weight =
      std::max(std::max(max0, max1), std::max(max2, max3));
  CACKLE_CHECK_GT(max_weight, 0.0);
  // Summed in a local, in index order, keeping each running total for
  // Sample: the member would be stored back every step, since the weights
  // might alias it.
  double total = 0.0;
  const bool floored = weight_floor_ratio_ > 0.0;
  const double floor = weight_floor_ratio_ * max_weight;
  for (i = 0; i < n; ++i) {
    if (floored) w[i] = std::max(w[i], floor);
    total += w[i];
    prefix_[i] = total;
  }
  total_weight_ = total;
  // Every 64th round renormalizes. A round scales each weight by at least
  // 1 - epsilon >= 1/2, so the total never falls below 2^-64 per expert.
  ++rounds_;
  if ((rounds_ & 0x3F) == 0) Normalize();
}

size_t MultiplicativeWeights::Sample(Rng* rng) const {
  // The linear scan's cumulative sums are exactly prefix_, which never
  // decreases, so its first index with r < cumulative is upper_bound's.
  const double r = rng->NextDouble() * total_weight_;
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), r);
  if (it == prefix_.end()) return weights_.size() - 1;  // floating-point edge
  return static_cast<size_t>(it - prefix_.begin());
}

double MultiplicativeWeights::Probability(size_t i) const {
  CACKLE_CHECK_LT(i, weights_.size());
  return weights_[i] / total_weight_;
}

}  // namespace cackle
