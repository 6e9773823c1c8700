package stats

import "math"

// FoldRepeat returns exactly the bits k passes of
//
//	for _, w := range ops { s += w }
//
// would leave in s, in time that does not grow with k. The fast-forward layer
// uses it to extrapolate running float totals over skipped cycles: a
// per-cycle sum added k times, or a product, would round differently.
//
// The jump rests on the ulp grid. Take s normal and positive in the binade
// [2^e, 2^(e+1)): every float there is an integer multiple m of
// u = 2^(e−52), with 2^52 ≤ m < 2^53. For a finite operand w ≥ 0 the exact
// sum s+w = (m + w/u)·u, and while it stays below 2^(e+1) round-to-nearest
// lands on the grid point nearest to it: RN(s+w) = (m + round(w/u))·u, where
// a tie (w/u an integer plus exactly ½) goes to the even multiple. So a pass
// that starts at m adds an integer number of ulps that depends only on the
// parity of m, and while m stays ≤ 2^53−1 a run of c passes is
// integer arithmetic over a two-state parity automaton — one multiply, not
// c·len(ops) float adds. The pass that would cross into the next binade runs
// serially, and the grid is re-derived there.
//
// Anything outside the argument falls back to serial passes, which are
// exact by definition: s ≤ 0, subnormal or non-finite s, and a negative,
// non-finite or ≥ 2^(e+1) operand. A pass that leaves s unchanged leaves it
// unchanged for good, so even a fallback stops at the first fixed point.
func FoldRepeat(s float64, ops []float64, k int) float64 {
	for k > 0 {
		if g, ok := newUlpGrid(s, ops); ok {
			var passes int
			s, passes = g.jump(k)
			if k -= passes; k == 0 {
				break
			}
		}
		next := s
		for _, w := range ops {
			next += w
		}
		k--
		if math.Float64bits(next) == math.Float64bits(s) {
			break
		}
		s = next
	}
	return s
}

// ulpGrid is one pass of a fold, resolved on the ulp grid of s's binade.
type ulpGrid struct {
	exp uint64 // s's biased exponent field
	m   int64  // s = m·u, 2^52 ≤ m ≤ 2^53−1
	// add[p] is the number of ulps one pass adds when it starts at a
	// multiple of parity p (only ties make the two differ). Values past
	// maxUlps are clamped there: such a pass never fits in the binade.
	add [2]int64
}

const (
	minUlps = int64(1) << 52
	maxUlps = int64(1)<<53 - 1
)

// newUlpGrid resolves one pass over ops starting at s, reporting false when
// s or an operand is outside the grid argument.
func newUlpGrid(s float64, ops []float64) (ulpGrid, bool) {
	b := math.Float64bits(s)
	exp := b >> 52 // the sign bit rides along: a negative s reads as > 0x7ff
	if exp == 0 || exp >= 0x7ff {
		return ulpGrid{}, false // zero, subnormal, negative, or non-finite
	}
	e := int(exp) - 1023
	g := ulpGrid{exp: exp, m: int64(b&(1<<52-1)) | minUlps}
	top := math.Ldexp(1, e+1) // +Inf for the top binade, which is fine
	for _, w := range ops {
		if !(w >= 0 && w < top) {
			return ulpGrid{}, false // negative, NaN, infinite, or too large
		}
		// w/u exactly: a power-of-two scale of a value below 2^53 (it can
		// only lose bits by underflowing, far below the ½ that matters).
		q := math.Ldexp(w, 52-e)
		fl := math.Floor(q)
		n, frac := int64(fl), q-fl
		if frac > 0.5 {
			n++
		}
		for p := range g.add {
			a := g.add[p] + n
			if frac == 0.5 { // a tie: round to the even multiple
				a += (int64(p) + a) & 1
			}
			g.add[p] = min(a, maxUlps+1)
		}
	}
	return g, true
}

// jump runs as many of k passes as stay inside the binade and returns the
// new s with the number of passes taken (0 when not even one fits).
func (g ulpGrid) jump(k int) (float64, int) {
	room := maxUlps - g.m
	passes := 0
	next := func(p int64) int64 { return (p + g.add[p]) & 1 }
	for passes < k {
		p := g.m & 1
		d := g.add[p]
		q := next(p)
		var c, gain int64
		switch {
		case q == p: // every further pass adds d
			c = int64(k - passes)
			if d > 0 {
				c = min(c, room/d)
			}
			gain = c * d
		case next(q) != q && k-passes >= 2 && room >= d+g.add[q]:
			// The parity alternates: passes come in pairs adding d+add[q].
			pair := d + g.add[q]
			n := min(int64(k-passes)/2, room/pair)
			c, gain = 2*n, n*pair
		case d <= room: // a single pass, e.g. the one that settles the parity
			c, gain = 1, d
		}
		if c == 0 {
			break
		}
		g.m += gain
		room -= gain
		passes += int(c)
	}
	return math.Float64frombits(g.exp<<52 | uint64(g.m-minUlps)), passes
}
