package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it, so one stray request cannot set it.
const minBeyond = 10

// samples keeps every observation exactly (no bucketing); latencies are in
// milliseconds.
type samples []float64

// percentile returns the nearest-rank p-th quantile (0 < p <= 1) of s, or NaN
// when s is empty.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)]
}

// mean returns the arithmetic mean of s, or 0 when s is empty.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// rank is the zero-based nearest-rank index of the p-th quantile of n
// samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie strictly above the p-th quantile's
// rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tail returns the p-th quantile when the tail rule allows it: at least
// minBeyond samples lie beyond it. ok is false otherwise.
func (s samples) tail(p float64) (v float64, ok bool) {
	if beyond(len(s), p) < minBeyond {
		return math.NaN(), false
	}
	return s.percentile(p), true
}

// weightedMedian combines per-operation medians by fixed weights: the sum of
// weight*median over the operations present, normalised by their weights.
// It is the latency of a typical request of the mix, and unlike the median
// of the pooled samples it does not jump between modes when operations of
// very different cost are mixed.
func weightedMedian(byOp map[string]samples, weights map[string]float64) float64 {
	var sum, total float64
	for op, w := range weights {
		s := byOp[op]
		if len(s) == 0 || w <= 0 {
			continue
		}
		sum += w * s.percentile(0.5)
		total += w
	}
	if total == 0 {
		return math.NaN()
	}
	return sum / total
}
