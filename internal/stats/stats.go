// Package stats provides the small set of statistical helpers used across
// the experiment harness: means, standard deviations, extrema and sums.
//
// All functions treat an empty input as a programming error only where
// noted; otherwise they return 0 so that aggregation code can stay simple.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs and its index. For an empty slice it
// returns (0, -1).
func Min(xs []float64) (min float64, idx int) {
	if len(xs) == 0 {
		return 0, -1
	}
	min, idx = xs[0], 0
	for i, x := range xs[1:] {
		if x < min {
			min, idx = x, i+1
		}
	}
	return min, idx
}

// Max returns the maximum of xs and its index. For an empty slice it
// returns (0, -1).
func Max(xs []float64) (max float64, idx int) {
	if len(xs) == 0 {
		return 0, -1
	}
	max, idx = xs[0], 0
	for i, x := range xs[1:] {
		if x > max {
			max, idx = x, i+1
		}
	}
	return max, idx
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// MeanStd returns both the mean and the population standard deviation in a
// single pass pair, convenient for profile tables with error bars.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), StdDev(xs)
}
