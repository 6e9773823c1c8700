// Package stats provides the small statistical kit the metrics and report
// layers need: online mean/variance, order statistics, and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean, and variance in one pass (Welford).
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a value into the accumulator.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		o.min = math.Min(o.min, x)
		o.max = math.Max(o.max, x)
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N reports the number of samples.
func (o *Online) N() int { return o.n }

// Mean reports the sample mean (0 with no samples).
func (o *Online) Mean() float64 { return o.mean }

// Var reports the unbiased sample variance (0 with fewer than two samples).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std reports the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min reports the smallest sample (0 with no samples).
func (o *Online) Min() float64 { return o.min }

// Max reports the largest sample (0 with no samples).
func (o *Online) Max() float64 { return o.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. It panics on an empty slice or out-of-range q —
// both are caller bugs, not data conditions.
func Quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for input already in ascending order: callers
// that need several quantiles of one sample sort once and read many, instead
// of paying Quantile's copy-and-sort per call. Same interpolation, same
// panics — Quantile delegates here, so the two cannot drift.
func QuantileSorted(s []float64, q float64) float64 {
	return quantile(len(s), q, func(i int) float64 { return s[i] })
}

// QuantileSortedRepeated is QuantileSorted over the multiset union of a and
// w further copies of b, both ascending, without materialising it: the same
// interpolation over the same order statistics, each found by binary search.
// It reads a run-length sample — a block of values that recurs many times —
// in time independent of the repetition count.
func QuantileSortedRepeated(a, b []float64, w int, q float64) float64 {
	return quantile(len(a)+w*len(b), q, func(r int) float64 { return rankRepeated(a, b, w, r) })
}

// quantile interpolates the q-quantile of an ascending sample of n values
// whose order statistic i is at(i).
func quantile(n int, q float64, at func(i int) float64) float64 {
	if n == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if n == 1 {
		return at(0)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// rankRepeated returns order statistic r of a ∪ w×b (both ascending): the
// smallest value with more than r sample values at or below it.
func rankRepeated(a, b []float64, w, r int) float64 {
	if w == 0 || len(b) == 0 {
		return a[r]
	}
	atOrBelow := func(v float64) int {
		return upperBound(a, v) + w*upperBound(b, v)
	}
	i := sort.Search(len(a), func(i int) bool { return atOrBelow(a[i]) > r })
	j := sort.Search(len(b), func(j int) bool { return atOrBelow(b[j]) > r })
	switch {
	case i == len(a):
		return b[j]
	case j == len(b) || a[i] <= b[j]:
		return a[i]
	default:
		return b[j]
	}
}

// upperBound counts the values of ascending s at or below v.
func upperBound(s []float64, v float64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// Mean reports the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	return MeanRepeated(xs, 0, 0, 0)
}

// MeanRepeated is Mean over xs with the block xs[lo:hi] occurring reps more
// times right after itself, summed in that order — the exact bits the
// expanded slice would give, in time independent of reps (FoldRepeat sums
// the repeated block). 0 for empty input.
func MeanRepeated(xs []float64, lo, hi, reps int) float64 {
	n := len(xs) + reps*(hi-lo)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs[:hi] {
		sum += x
	}
	sum = FoldRepeat(sum, xs[lo:hi], reps)
	for _, x := range xs[hi:] {
		sum += x
	}
	return sum / float64(n)
}

// Histogram counts values into uniform-width bins over [lo, hi]. Values
// outside the range clamp into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	count  int
}

// NewHistogram builds a histogram with n bins over [lo, hi].
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v)x%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Add counts one value.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
	h.count++
}

// Count reports the total number of values added.
func (h *Histogram) Count() int { return h.count }

// BinCenter reports the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}
