#ifndef CACKLE_STRATEGY_MULTIPLICATIVE_WEIGHTS_H_
#define CACKLE_STRATEGY_MULTIPLICATIVE_WEIGHTS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace cackle {

/// \brief The multiplicative weights update method (Arora, Hazan & Kale)
/// used by the meta-strategy to choose among the expert family
/// (Section 4.4.4).
///
/// Maintains a weight per expert; each round every expert reports a penalty
/// (its normalized cost over the preceding interval, in [0, 1]) and weights
/// are multiplied by (1 - epsilon * penalty). The played expert is sampled
/// from the weight distribution. The classic regret bound guarantees the
/// expected cumulative penalty is within p*ln(n)/epsilon of the best expert,
/// where p bounds the per-round penalty.
class MultiplicativeWeights {
 public:
  /// `epsilon` must lie in (0, 1/2]. `weight_floor_ratio`, when positive,
  /// keeps every weight at least that fraction of the maximum weight after
  /// each update (a fixed-share-style floor). This bounds how long the
  /// algorithm needs to switch experts after the environment changes
  /// (Section 4.4.3 recomputes strategy costs under new conditions; the
  /// floor is the equivalent online mechanism) while adding at most
  /// n * ratio of stray sampling mass.
  MultiplicativeWeights(size_t num_experts, double epsilon,
                        double weight_floor_ratio = 0.0);

  size_t num_experts() const { return weights_.size(); }
  double epsilon() const { return epsilon_; }

  /// Applies one round of penalties (one per expert, each in [0, 1];
  /// values outside are clamped).
  void Update(const std::vector<double>& penalties);

  /// Samples an expert from the current weight distribution: the first
  /// whose running weight total passes a uniform draw over the total, found
  /// by binary search over the running totals.
  size_t Sample(Rng* rng) const;

  /// Normalized probability of expert `i`.
  double Probability(size_t i) const;

  const std::vector<double>& weights() const { return weights_; }
  /// The total Sample draws against: the sum of the weights, or their
  /// count after a renormalization.
  double total_weight() const { return total_weight_; }
  int64_t rounds() const { return rounds_; }

 private:
  void Normalize();

  std::vector<double> weights_;
  /// prefix_[i] is weights_[0] + ... + weights_[i], added in index order.
  std::vector<double> prefix_;
  double epsilon_;
  double weight_floor_ratio_;
  double total_weight_;
  int64_t rounds_ = 0;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_MULTIPLICATIVE_WEIGHTS_H_
