package main

import "slices"

// summary is how every metric is stored: the sample count, the median and
// the quartiles. One value per run goes into the contract's result line
// (the median); the rest is printed beside it so a reader sees the spread
// the value came from.
type summary struct {
	N                   int
	Median, Q1, Q3, Min float64
}

// summarize computes the median and quartiles with the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// the spreads this program prints are the ones the driver computes.
func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	v := slices.Clone(values)
	slices.Sort(v)
	return summary{
		N:      len(v),
		Median: quantile(v, 2),
		Q1:     quantile(v, 1),
		Q3:     quantile(v, 3),
		Min:    v[0],
	}
}

// quantile returns the k-th quartile cut of ascending-sorted v.
func quantile(v []float64, k int) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	j := min(max(k*(n+1)/4, 1), n-1)
	delta := float64(k*(n+1) - j*4)
	return (v[j-1]*(4-delta) + v[j]*delta) / 4
}

func median(values []float64) float64 { return summarize(values).Median }

// percentile reports the q-quantile (nearest rank) of ascending-sorted
// samples, but only when at least ten samples lie beyond it; with fewer, a
// tail percentile is one or two outliers, not a measurement, and ok is
// false.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	i := int(q * float64(n))
	if i >= n || n-1-i < 10 {
		return 0, false
	}
	return sorted[i], true
}
