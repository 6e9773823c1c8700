package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// foldSerial is the reference FoldRepeat must reproduce bit for bit.
func foldSerial(s float64, ops []float64, k int) float64 {
	for c := 0; c < k; c++ {
		for _, w := range ops {
			s += w
		}
	}
	return s
}

// checkFold compares FoldRepeat with the serial loop bit for bit.
func checkFold(t *testing.T, name string, s float64, ops []float64, k int) {
	t.Helper()
	want := foldSerial(s, ops, k)
	got := FoldRepeat(s, ops, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: FoldRepeat(%v, %d ops, %d) = %v (%#x), serial %v (%#x)",
			name, s, len(ops), k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// halfUlp returns w such that w/ulp(s) is exactly n + ½, a rounding tie when
// added to s.
func halfUlp(s float64, n int) float64 {
	_, e := math.Frexp(s) // s = f·2^e, f in [½, 1): ulp is 2^(e−53)
	return (float64(n) + 0.5) * math.Ldexp(1, e-53)
}

// TestFoldRepeatCases covers each branch of the grid argument with a
// hand-built operand list.
func TestFoldRepeatCases(t *testing.T) {
	s0 := 1234.5678
	tie0, tie1 := halfUlp(s0, 0), halfUlp(s0, 1)
	cases := []struct {
		name string
		s    float64
		ops  []float64
		k    int
	}{
		{"empty", s0, nil, 10},
		{"k=0", s0, []float64{1}, 0},
		{"plain", s0, []float64{0.1, 2.5, 1e-3}, 5000},
		{"below-half-ulp", s0, []float64{tie0 / 2, tie0 / 3}, 100000},
		{"ties-only", s0, []float64{tie0}, 1001},
		{"tie-after-tie", s0, []float64{tie0, tie0}, 999},
		{"tie-odd-step", s0, []float64{tie1, math.Ldexp(1, -42)}, 777},
		{"mixed-ties", s0, []float64{tie0, 0.25, tie1, 1e-9, tie0}, 4321},
		{"crossings", 1.0, []float64{0.75, 0.3, 1e-7}, 20000},
		{"tiny-start", 1e-300, []float64{1e-301, 3e-302}, 3000},
		{"zero-start", 0, []float64{0.1, 0.2}, 3000},
		{"neg-zero-start", math.Copysign(0, -1), []float64{0, math.Copysign(0, -1)}, 50},
		{"subnormal-start", 5e-324, []float64{5e-324, 1e-323}, 3000},
		{"negative-start", -10, []float64{0.1, 0.3}, 500},
		{"negative-op", 10, []float64{0.1, -0.3}, 500},
		{"huge-op", 1, []float64{1e6, 1}, 300},
		{"inf-op", 1, []float64{math.Inf(1)}, 3},
		{"nan-op", 1, []float64{math.NaN()}, 3},
		{"top-binade", math.MaxFloat64 / 4, []float64{math.MaxFloat64 / 16}, 10},
		{"large-k", 1e3, []float64{1e-3, 7e-4, 3.3e-5}, 3_000_000},
	}
	for _, c := range cases {
		checkFold(t, c.name, c.s, c.ops, c.k)
	}
}

// TestFoldRepeatProperty draws random starts, operand mixes, and pass counts
// — with operands pinned to exact half-ulps of the start, operands below
// half an ulp, and ones large enough to cross many binades — and compares
// against the serial loop.
func TestFoldRepeatProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		s := math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
		ops := make([]float64, 1+rng.Intn(12))
		for j := range ops {
			switch rng.Intn(5) {
			case 0:
				ops[j] = halfUlp(s, rng.Intn(4))
			case 1:
				ops[j] = halfUlp(s, 0) * rng.Float64() // below half an ulp
			case 2:
				ops[j] = s * rng.Float64() * 1e-3 // crosses a binade in ~1000 passes
			case 3:
				ops[j] = math.Ldexp(float64(rng.Intn(64)), rng.Intn(20)-60)
			default:
				ops[j] = s * rng.Float64() * 1e-9
			}
		}
		k := 1 + rng.Intn(20000)
		checkFold(t, "random", s, ops, k)
	}
}

// FuzzFoldRepeat compares FoldRepeat with the serial loop on arbitrary
// starts and operands (pass counts capped so the reference stays cheap).
func FuzzFoldRepeat(f *testing.F) {
	f.Add(1234.5678, 0.1, 2.5e-3, 1e-12, uint16(5000))
	f.Add(1.0, halfUlp(1, 0), halfUlp(1, 1), 0.0, uint16(999))
	f.Add(0.0, 0.1, 0.2, 0.3, uint16(100))
	f.Add(5e-324, 5e-324, 0.0, 1e-310, uint16(3000))
	f.Add(-1.0, 0.5, -0.25, 1.0, uint16(64))
	f.Fuzz(func(t *testing.T, s, a, b, c float64, k uint16) {
		checkFold(t, "fuzz", s, []float64{a, b, c}, int(k))
	})
}

// TestRepeatedSampleMatchesExpanded pins MeanRepeated and
// QuantileSortedRepeated to Mean and QuantileSorted over the expanded
// sample, bit for bit, including duplicate values across the block and the
// rest.
func TestRepeatedSampleMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		xs := make([]float64, 1+rng.Intn(20))
		for j := range xs {
			xs[j] = float64(rng.Intn(40)) + rng.Float64()*float64(rng.Intn(2))
		}
		lo := rng.Intn(len(xs))
		hi := lo + rng.Intn(len(xs)-lo+1)
		reps := rng.Intn(50)
		expanded := append([]float64(nil), xs[:hi]...)
		for c := 0; c < reps; c++ {
			expanded = append(expanded, xs[lo:hi]...)
		}
		expanded = append(expanded, xs[hi:]...)
		if got, want := MeanRepeated(xs, lo, hi, reps), Mean(expanded); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MeanRepeated(%v, %d, %d, %d) = %v, expanded mean %v", xs, lo, hi, reps, got, want)
		}
		a := append([]float64(nil), xs...)
		b := append([]float64(nil), xs[lo:hi]...)
		slices.Sort(a)
		slices.Sort(b)
		slices.Sort(expanded)
		for _, q := range []float64{0, 0.1, 0.5, 0.99, 0.999, 1} {
			got, want := QuantileSortedRepeated(a, b, reps, q), QuantileSorted(expanded, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("QuantileSortedRepeated(%v, %v, %d, %v) = %v, expanded %v", a, b, reps, q, got, want)
			}
		}
	}
}
