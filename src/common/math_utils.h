#ifndef MAGNETO_COMMON_MATH_UTILS_H_
#define MAGNETO_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <vector>

namespace magneto {

/// Scalar statistics over float spans: the definitions of the hand-crafted
/// features. `preprocess::FeatureExtractor` computes them fused, in two row
/// sweeps over all channels, and is tested bit for bit against these. All
/// are single-pass or two-pass, i.e. linear time, matching the paper's
/// "linear processing time" claim for the preprocessing function.
namespace stats {

double Mean(const float* x, size_t n);
double Variance(const float* x, size_t n);     ///< Population variance.
double StdDev(const float* x, size_t n);
double Min(const float* x, size_t n);
double Max(const float* x, size_t n);
/// p in [0,1]; linear interpolation between order statistics. O(n log n).
double Quantile(std::vector<float> x, double p);
/// Quantile of `n` values already in ascending order; the interpolation of
/// `Quantile`, without the copy and the sort.
double QuantileSorted(const float* sorted, size_t n, double p);
double Median(const std::vector<float>& x);
/// Fisher skewness; 0 for n < 2 or zero variance.
double Skewness(const float* x, size_t n);
/// Excess kurtosis; 0 for n < 2 or zero variance.
double Kurtosis(const float* x, size_t n);
/// Mean of squares ("signal energy" per sample).
double Energy(const float* x, size_t n);
double RootMeanSquare(const float* x, size_t n);
/// Mean absolute deviation around the mean.
double MeanAbsDeviation(const float* x, size_t n);
/// Number of sign changes of (x - mean), normalised by n-1.
double ZeroCrossingRate(const float* x, size_t n);
/// Lag-k autocorrelation (Pearson, population normalisation); 0 if degenerate.
double Autocorrelation(const float* x, size_t n, size_t lag);
/// Pearson correlation between two spans; 0 if either is degenerate.
double PearsonCorrelation(const float* x, const float* y, size_t n);
/// Mean absolute first difference ("jerk" magnitude proxy).
double MeanAbsDiff(const float* x, size_t n);
/// Interquartile range (q75 - q25), from one sorted copy of `x`.
double Iqr(const std::vector<float>& x);

}  // namespace stats

/// Numerically stable log(sum(exp(x))) over a span.
double LogSumExp(const double* x, size_t n);

/// In-place softmax over a span (double precision accumulate).
void SoftmaxInPlace(float* x, size_t n);

/// Clamps v to [lo, hi].
float Clamp(float v, float lo, float hi);

}  // namespace magneto

#endif  // MAGNETO_COMMON_MATH_UTILS_H_
