#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "common/circuit_breaker.h"
#include "common/retry_policy.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace cackle {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kIoError); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Status Fails() { return Status::NotFound("nope"); }
Status Propagates() {
  CACKLE_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Internal("boom");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(10);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextExponential(0.25));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, ForkIndependent) {
  Rng a(5);
  Rng fork = a.Fork();
  EXPECT_NE(a.NextUint64(), fork.NextUint64());
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25);
}

TEST(PercentileTest, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
}

TEST(SampleSetTest, CdfMonotone) {
  SampleSet set;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) set.Add(rng.NextDouble(0, 100));
  auto cdf = set.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(FitLineTest, RecoversExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.At(100), 293.0, 1e-9);
}

TEST(FitLineTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(FitLine({}, {}).slope, 0.0);
  const LinearFit flat = FitLine({2, 2, 2}, {5, 6, 7});
  EXPECT_DOUBLE_EQ(flat.slope, 0.0);
  EXPECT_DOUBLE_EQ(flat.intercept, 6.0);
}

TEST(TablePrinterTest, TextAndCsv) {
  TablePrinter t({"name", "cost"});
  t.BeginRow();
  t.AddCell("dynamic");
  t.AddCell(12.5, 2);
  t.BeginRow();
  t.AddCell("fixed,0");
  t.AddCell(int64_t{3});
  std::ostringstream text;
  t.PrintText(text);
  EXPECT_NE(text.str().find("dynamic"), std::string::npos);
  EXPECT_NE(text.str().find("12.50"), std::string::npos);
  std::ostringstream csv;
  t.PrintCsv(csv);
  EXPECT_NE(csv.str().find("\"fixed,0\""), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(FormatDoubleTest, FixedDecimals) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicyOptions opts;
  opts.initial_backoff_ms = 100;
  opts.jitter = 0.0;
  RetryPolicy policy(opts);
  EXPECT_EQ(policy.BackoffMs(1), 100);
  EXPECT_EQ(policy.BackoffMs(2), 200);
  EXPECT_EQ(policy.BackoffMs(3), 400);
  EXPECT_EQ(policy.BackoffMs(4), 800);
  EXPECT_EQ(policy.BackoffMs(7), 6400);
  EXPECT_EQ(policy.BackoffMs(8), 10'000);  // capped
  EXPECT_EQ(policy.BackoffMs(20), 10'000);
}

TEST(RetryPolicyTest, JitterStaysWithinBoundsAndIsDeterministic) {
  RetryPolicyOptions opts;
  opts.initial_backoff_ms = 1000;
  opts.jitter = 0.25;
  Rng rng1(7), rng2(7);
  RetryPolicy p1(opts, &rng1);
  RetryPolicy p2(opts, &rng2);
  for (int i = 1; i <= 50; ++i) {
    // Every first backoff is nominally 1000 ms; each call draws anew.
    const int64_t b1 = p1.BackoffMs(1);
    EXPECT_GE(b1, 750);
    EXPECT_LE(b1, 1250);
    EXPECT_EQ(b1, p2.BackoffMs(1));  // same seed => same jitter sequence
  }
}

/// The loop a caller runs around the policy: try `op`, and after each
/// failure add the backoff to a virtual clock and ask whether to go on.
/// Returns the final status; `attempts` receives the attempts made.
Status RunRetryLoop(RetryPolicy* policy, const std::function<Status()>& op,
                    int* attempts) {
  int64_t elapsed_ms = 0;
  Status status;
  *attempts = 0;
  do {
    ++*attempts;
    status = op();
    if (status.ok()) break;
    elapsed_ms += policy->BackoffMs(*attempts);
  } while (policy->ShouldRetry(*attempts, elapsed_ms));
  return status;
}

TEST(RetryPolicyTest, LoopRetriesUntilSuccess) {
  RetryPolicyOptions opts;
  opts.max_attempts = 10;
  opts.jitter = 0.0;
  RetryPolicy policy(opts);
  int calls = 0;
  int attempts = 0;
  const Status s = RunRetryLoop(
      &policy,
      [&] {
        ++calls;
        return calls < 4 ? Status::IoError("transient") : Status::OK();
      },
      &attempts);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(attempts, 4);
}

TEST(RetryPolicyTest, LoopStopsAtMaxAttempts) {
  RetryPolicyOptions opts;
  opts.max_attempts = 3;
  opts.jitter = 0.0;
  RetryPolicy policy(opts);
  int calls = 0;
  int attempts = 0;
  const Status s = RunRetryLoop(
      &policy, [&] { ++calls; return Status::IoError("nope"); }, &attempts);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, ShouldRetryRespectsBothLimits) {
  RetryPolicyOptions opts;
  opts.max_attempts = 3;
  opts.max_elapsed_ms = 1000;
  RetryPolicy policy(opts);
  EXPECT_TRUE(policy.ShouldRetry(1, 0));
  EXPECT_TRUE(policy.ShouldRetry(2, 999));
  EXPECT_FALSE(policy.ShouldRetry(3, 0));     // attempts exhausted
  EXPECT_FALSE(policy.ShouldRetry(1, 1000));  // budget exhausted
}

TEST(RetryPolicyTest, MaxElapsedBudgetExhaustsRetries) {
  RetryPolicyOptions opts;
  opts.max_attempts = 0;  // unlimited attempts: only the budget stops it
  opts.initial_backoff_ms = 100;
  opts.jitter = 0.0;
  opts.max_elapsed_ms = 750;  // allows backoffs of 100, 200 and 400 ms
  RetryPolicy policy(opts);
  int calls = 0;
  int attempts = 0;
  const Status s = RunRetryLoop(
      &policy, [&] { ++calls; return Status::IoError("nope"); }, &attempts);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 4);  // initial try + 3 retries inside the budget

  // The budget caps whatever elapsed time the caller reports — simulated
  // wall time in the engine — not just policy backoffs.
  EXPECT_TRUE(policy.ShouldRetry(1, 749));
  EXPECT_FALSE(policy.ShouldRetry(1, 750));
}

TEST(RetryPolicyTest, MaxElapsedBudgetIsDeterministicUnderJitter) {
  RetryPolicyOptions opts;
  opts.max_attempts = 0;
  opts.initial_backoff_ms = 100;
  opts.jitter = 0.5;
  opts.max_elapsed_ms = 2000;
  Rng rng1(11), rng2(11);
  RetryPolicy p1(opts, &rng1);
  RetryPolicy p2(opts, &rng2);
  int c1 = 0, c2 = 0;
  int attempts = 0;
  const Status s1 = RunRetryLoop(
      &p1, [&] { ++c1; return Status::IoError("x"); }, &attempts);
  const Status s2 = RunRetryLoop(
      &p2, [&] { ++c2; return Status::IoError("x"); }, &attempts);
  EXPECT_FALSE(s1.ok());
  EXPECT_FALSE(s2.ok());
  EXPECT_EQ(c1, c2);  // same seed => same jittered exhaustion point
  EXPECT_GT(c1, 1);
}

TEST(RetryPolicyTest, JitterNeverExceedsBackoffCap) {
  RetryPolicyOptions opts;
  // Nominal == cap: jitter has no headroom up.
  opts.initial_backoff_ms = RetryPolicy::kMaxBackoffMs;
  opts.jitter = 0.9;
  Rng rng(123);
  RetryPolicy policy(opts, &rng);
  for (int i = 1; i <= 200; ++i) {
    const int64_t backoff = policy.BackoffMs(i);
    // The cap is hard, even post-jitter.
    EXPECT_LE(backoff, RetryPolicy::kMaxBackoffMs);
    EXPECT_GE(backoff, 1);
  }
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTripsOrRejects) {
  CircuitBreaker breaker(CircuitBreakerOptions{});  // threshold 0 = off
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.AllowRequest(i));
    breaker.RecordFailure(i);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
  EXPECT_EQ(breaker.rejections(), 0);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRejectsWhileOpen) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  opts.open_ms = 1000;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(10);
  breaker.RecordFailure(20);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(30);  // third consecutive failure trips it
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.AllowRequest(31));
  EXPECT_FALSE(breaker.AllowRequest(1029));
  EXPECT_EQ(breaker.rejections(), 2);
  EXPECT_EQ(breaker.RetryAtMs(), 1030);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 3;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(1);
  breaker.RecordFailure(2);
  breaker.RecordSuccess(3);  // streak broken
  breaker.RecordFailure(4);
  breaker.RecordFailure(5);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
}

TEST(CircuitBreakerTest, HalfOpensAfterCooldownAndClosesOnSuccesses) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_ms = 1000;
  opts.success_threshold = 2;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // The cooldown expiry is a deterministic function of the trip time: the
  // first request at or past open_until transitions to half-open.
  EXPECT_FALSE(breaker.AllowRequest(999));
  EXPECT_TRUE(breaker.AllowRequest(1000));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.half_opens(), 1);
  breaker.RecordSuccess(1001);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(1002);  // second trial success closes it
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensForAnotherCooldown) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_ms = 1000;
  CircuitBreaker breaker(opts);
  breaker.RecordFailure(0);
  EXPECT_TRUE(breaker.AllowRequest(1000));  // half-open trial
  breaker.RecordFailure(1005);              // trial fails: re-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.AllowRequest(2004));
  EXPECT_TRUE(breaker.AllowRequest(2005));  // new cooldown from the re-trip
}

TEST(SampleSetTest, CdfEmptyAndSingleSample) {
  SampleSet empty;
  EXPECT_TRUE(empty.Cdf(20).empty());
  EXPECT_TRUE(empty.Cdf(0).empty());

  SampleSet one;
  one.Add(3.5);
  const auto cdf = one.Cdf(4);
  ASSERT_EQ(cdf.size(), 4u);
  for (const auto& [value, frac] : cdf) {
    EXPECT_DOUBLE_EQ(value, 3.5);
    EXPECT_FALSE(std::isnan(frac));
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(PercentileTest, ExtremesReturnExactMinMaxNaNFree) {
  SampleSet s;
  for (double x : {5.0, -1.0, 7.5, 2.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Percentile(0), -1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 7.5);
  EXPECT_FALSE(std::isnan(s.Percentile(0)));
  EXPECT_FALSE(std::isnan(s.Percentile(100)));
}

TEST(PercentileTest, OutOfRangePAbortsEvenOnEmptyInput) {
  EXPECT_DEATH(Percentile({}, -1.0), "percentile out of range");
  EXPECT_DEATH(Percentile({1.0}, 100.5), "percentile out of range");
  EXPECT_DEATH(Percentile({}, std::nan("")), "percentile out of range");
}

TEST(RunningStatsTest, NearConstantInputKeepsStddevNaNFree) {
  // Welford's m2 can go a hair negative from catastrophic cancellation on
  // near-constant large values; stddev must stay finite and non-negative.
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) stats.Add(1e15 + (i % 2) * 1e-2);
  EXPECT_FALSE(std::isnan(stats.stddev()));
  EXPECT_GE(stats.variance(), 0.0);

  RunningStats constant;
  for (int i = 0; i < 10; ++i) constant.Add(3.141592653589793);
  EXPECT_GE(constant.variance(), 0.0);
  EXPECT_FALSE(std::isnan(constant.stddev()));
}

TEST(FitLineTest, DegenerateXGivesFlatFitThroughMeanY) {
  // All x identical: var_x == 0 must not divide; the fit is y = mean(y).
  const LinearFit fit = FitLine({2.0, 2.0, 2.0}, {1.0, 5.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 3.0);
  EXPECT_FALSE(std::isnan(fit.At(1e9)));
}

TEST(RetryPolicyTest, ZeroJitterConsumesNoRandomness) {
  RetryPolicyOptions opts;
  opts.jitter = 0.0;
  Rng rng(42);
  Rng reference(42);
  RetryPolicy policy(opts, &rng);
  policy.BackoffMs(1);
  policy.BackoffMs(2);
  // The Rng stream is untouched: next draws match a fresh same-seed Rng.
  EXPECT_EQ(rng.NextUint64(), reference.NextUint64());
}

}  // namespace
}  // namespace cackle
