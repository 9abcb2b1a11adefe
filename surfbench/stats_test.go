package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		p, want float64
		beyond  int
	}{
		{n: 100000, p: 99.99, want: 99990, beyond: 10},
		{n: 10000, p: 99.9, want: 9990, beyond: 10},
		{n: 9999, p: 99, want: 9900, beyond: 99},
		{n: 1000, p: 99, want: 990, beyond: 10},
		{n: 999, p: 90, want: 900, beyond: 99},
		{n: 21, p: 50, want: 11, beyond: 10},
		{n: 5, p: 100, want: 5, beyond: 0},
	}
	for _, c := range cases {
		got := tail(ramp(c.n))
		if got.Percentile != c.p || got.Value != c.want || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("n=%d: got %+v, want p%g=%g with %d beyond", c.n, got, c.p, c.want, c.beyond)
		}
		if got.Beyond < minBeyond && c.p != 100 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, got.Beyond, got.Percentile)
		}
	}
	if got := tail(nil); got != (Tail{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{3, 0}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestMedianAndNearestRank(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := tailAt(ramp(200), 90); got != 180 {
		t.Errorf("p90 of 1..200 = %g", got)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	ns := func(x int64) int64 { return x * int64(time.Microsecond) }
	spans := []Span{
		{ID: 1, Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 1, Start: ns(30), End: ns(60)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: ns(90), End: ns(120)}, // runs past the parent
		{ID: 5, Parent: 2, Start: ns(15), End: ns(20)},  // a grandchild: already covered
		{ID: 6, Start: ns(60), End: ns(90)},             // not a child
	}
	if got, want := selfTime(spans, 1), 40*time.Microsecond; got != want {
		t.Errorf("self time of the parent = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 2), 25*time.Microsecond; got != want {
		t.Errorf("self time of span 2 = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 6), 30*time.Microsecond; got != want {
		t.Errorf("self time of a leaf = %v, want %v", got, want)
	}
}
