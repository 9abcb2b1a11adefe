package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank rule: the smallest sample with at least
// p% of the samples at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankIndex(len(sorted), p)]
}

// tailAt is the p-th nearest-rank percentile of xs.
func tailAt(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sortedCopy(xs), p)
}

// rankIndex is the 0-based index nearestRank reads.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float error in p/100·n (99.9/100·10000 =
	// 9990.000000000002) from pushing an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentiles are the candidates tail() chooses from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// Tail is a tail latency with the percentile it was read at and how
// many samples lay beyond it.
type Tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tail returns the highest of tailPercentiles that has at least
// minBeyond samples beyond it. With too few samples for even the
// median it falls back to the maximum, read at the 100th percentile.
func tail(xs []float64) Tail {
	if len(xs) == 0 {
		return Tail{}
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		i := rankIndex(n, p)
		if beyond := n - 1 - i; beyond >= minBeyond {
			return Tail{Value: s[i], Percentile: p, Beyond: beyond, Samples: n}
		}
	}
	return Tail{Value: s[n-1], Percentile: 100, Beyond: 0, Samples: n}
}

// geomean is the geometric mean of positive values; 0 if any value is
// not positive or xs is empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
