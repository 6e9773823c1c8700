package metrics

import (
	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// This file is the collector half of the steady-state fast-forward layer
// (DESIGN.md §12): once the simulation state is proven to recur with period
// D, the collector records every metric-visible operation of one measurement
// cycle R and extrapolates it over the k skipped cycles. Every skipped cycle
// c = 1..k would repeat R's operations shifted by c·D — the identical slots,
// the identical response-time floats (a response time is a difference of two
// instants that both shift by c·D, so the float is reused verbatim), and the
// identical counter bumps. Storing them would cost O(k); Replay stores none
// of the middle copies. The result is a run-length block (ffBlock): R's
// slots stand physically for themselves and for the copies 1..k−1, which
// Summary folds and DebugSnapshot expands without ever storing them, and one
// physical block — copy k — follows R directly, holding the slots the live
// jobs carry into the simulated tail.

// FFStats reports what the steady-state fast-forward layer did during a run.
// All-zero means it never engaged (ineligible workload or disabled).
type FFStats struct {
	// BoundariesHashed counts release-boundary states fingerprinted.
	BoundariesHashed uint64
	// HashCollisions counts fingerprint hash matches whose verify-on-match
	// byte comparison failed — the collision safety net engaging.
	HashCollisions uint64
	// CyclesDetected counts confirmed state recurrences.
	CyclesDetected uint64
	// CyclesSkipped counts whole hyperperiod cycles extrapolated
	// analytically instead of simulated.
	CyclesSkipped uint64
}

// opKind is the origin tag of one recorded metric operation. It is a named
// enum on purpose: the replay switch must stay exhaustive (tagswitch,
// DESIGN.md §14), so a new op kind recorded for fingerprinting cannot
// silently fall through the extrapolation and desynchronize the collector
// from the full simulation it stands in for.
type opKind uint8

// Recorded-op origin tags.
const (
	opRelease opKind = iota
	opDone
	opDiscard
)

// ffOp is one recorded metric operation of the measurement cycle.
type ffOp struct {
	kind opKind
	// inWin carries JobReleased's in-window decision (release ops) or
	// JobDone's window test (done ops).
	inWin bool
	// late and val carry JobDone's deadline verdict and response-time
	// milliseconds, reused verbatim (see file comment).
	late bool
	// hasResp records MetricsSlot >= 0 for done/discard ops.
	hasResp bool
	// slot and respSlot are the op's absolute BacklogSlot / MetricsSlot in
	// the recorded cycle; Replay translates them by one cycle's append
	// counts.
	slot     int
	respSlot int
	// at is the op's absolute instant in the recorded cycle.
	at  des.Time
	val float64
}

// BeginRecording starts capturing metric operations. The caller records
// exactly one cycle (t, t+D] and must EndRecording at its close.
func (c *Collector) BeginRecording() {
	c.recording = true
	c.recOps = c.recOps[:0]
	c.recStartsBase = len(c.starts)
	c.recRespBase = len(c.resp)
}

// EndRecording stops capturing and fixes the per-cycle append counts.
func (c *Collector) EndRecording() {
	c.recording = false
	c.recPerCycleStarts = len(c.starts) - c.recStartsBase
	c.recPerCycleResp = len(c.resp) - c.recRespBase
}

// ffBlock is the run-length block a fast-forward Replay leaves behind: the
// recorded cycle's backlog intervals starts/ends[s0:s1] and response slots
// resp[r0:r1] occur reps more times right after themselves in release
// order, copy c shifted by c·period — the copies 1..reps that full
// simulation would have stored and Replay did not. The zero value (reps 0)
// is a run that never fast-forwarded, or skipped a single cycle.
type ffBlock struct {
	s0, s1, r0, r1 int
	reps           int
	period         des.Time
	// span is the block's extent, last end minus first start, and busy its
	// backlog integral Σ(end − start) in nanosecond·jobs; Summary needs
	// both per copy, and the block is immutable once Replay returns.
	span des.Time
	busy int64
}

// Replay extrapolates the recorded cycle R, of length D, over k skipped
// cycles, in time and memory independent of k (ffBlock). Cycle c of the
// skipped ones covers (t+c·D, t+(c+1)·D] for R = (t−D, t]. Its done and
// discard ops close either its own releases or — a pipelined job finishing
// one cycle after its release — releases of the cycle before it. Only two
// copies of those closes land in stored slots: copy 1's pipelined closes,
// which close R's own open slots at +D, and copy k's closes of its own
// releases, at +k·D, in the copy-k block appended after R. Both sit exactly
// one cycle's append counts past the recorded slot. Every other close lands
// in a copy the block stands for, and the counters add k times R's deltas.
//
// The block must be closed and inside the window for its copies to be
// exact, which the fast-forward driver's MinOpenRelease guard and the
// recurrence guarantee: every job of R ends before copy 2 begins, R starts
// at or past the warm-up, and copy k−1 ends by the horizon. Replay panics
// when the recording breaks any of these.
func (c *Collector) Replay(k int, cycle des.Time) {
	s0, ns := c.recStartsBase, c.recPerCycleStarts
	r0, nr := c.recRespBase, c.recPerCycleResp
	if c.block.reps > 0 || len(c.starts) != s0+ns || len(c.resp) != r0+nr {
		panic("metrics: Replay must directly follow the one recorded cycle of a run")
	}
	last := des.Time(int64(cycle) * int64(k))
	var released, completed, completedReleased, late, dropped int
	for i := range c.recOps {
		op := &c.recOps[i]
		shift := last // copy k closing one of its own releases
		if op.kind != opRelease && op.slot < s0 {
			if op.slot < s0-ns {
				panic("metrics: a recorded close reaches back more than one cycle")
			}
			shift = cycle // copy 1 closing one of R's pipelined slots
		}
		switch op.kind {
		case opRelease:
			c.starts = append(c.starts, op.at+last)
			c.ends = append(c.ends, des.Never)
			if op.inWin {
				released++
				// Fast-forward-eligible runs raise neither flag.
				c.appendSlot(0)
			}
		case opDone:
			c.ends[op.slot+ns] = op.at + shift
			if op.inWin {
				completed++
			}
			if op.hasResp {
				completedReleased++
				if op.late {
					late++
				}
				c.resp[op.respSlot+nr] = op.val
			}
		case opDiscard:
			c.ends[op.slot+ns] = op.at + shift
			if op.hasResp {
				dropped++
			}
		}
	}
	c.released += k * released
	c.completed += k * completed
	c.completedReleased += k * completedReleased
	c.lateCompleted += k * late
	c.dropped += k * dropped
	if k < 2 || ns == 0 {
		return // every copy is stored: nothing to stand for
	}
	b := ffBlock{s0: s0, s1: s0 + ns, r0: r0, r1: r0 + nr, reps: k - 1, period: cycle}
	first, end := c.starts[s0], des.Time(0)
	for i := s0; i < b.s1; i++ {
		if c.ends[i] == des.Never {
			panic("metrics: a recorded release is still open two cycles later")
		}
		end = max(end, c.ends[i])
		b.busy += int64(c.ends[i] - c.starts[i])
	}
	b.span = end - first
	if first < c.warmUp || end+des.Time(int64(cycle)*int64(b.reps)) > c.horizon {
		panic("metrics: a fast-forwarded cycle crosses the measurement window")
	}
	c.block = b
}

// ShiftSlots retargets a live job's collector slots to those of its
// recurrence k cycles later, once Replay has run. Live jobs at the end of
// the recorded cycle were all released in it, and their recurrences sit in
// the copy-k block Replay stored directly after it: one cycle's append
// counts higher, whatever k is.
func (c *Collector) ShiftSlots(j *rt.Job) {
	if j.BacklogSlot < c.recStartsBase {
		panic("metrics: a live job outlived the fast-forward guard")
	}
	j.BacklogSlot += c.recPerCycleStarts
	if j.MetricsSlot >= 0 {
		j.MetricsSlot += c.recPerCycleResp
	}
}

// depthIntervals returns Summary's queueDepth input — the stored backlog
// intervals plus the few block copies the depth maximum needs, in reused
// scratch — and the integral of the copies it leaves out. Without a block
// it is a copy of the stored intervals and nothing more.
//
// The integral is exact: the copies lie inside the window (Replay checks),
// so each adds its unclipped Σ(end − start), block.busy.
//
// The maximum is exact too. Write σ and τ for the block's first start and
// last end, W = τ − σ, n = ⌈W/D⌉, r = reps, and depth(t) for the number of
// intervals with start ≤ t < end; QueueDepthMax is depth's maximum over
// [warmUp, horizon). Split depth into the copies C_0..C_r (C_0 the stored
// block) and the rest: intervals stored before the block, which all start
// at or before σ (slots are appended in release order), and those after
// it, which all start at or after σ + (r+1)·D (the copy-k block, then the
// tail).
//
//  1. Copy c covers t only if σ + c·D ≤ t < τ + c·D. For t in
//     [τ, σ + (r+1)·D) every covering copy has 1 ≤ c ≤ r, so moving each
//     to copy c−1 shows the copies' depth at t − D equals theirs at t.
//  2. For t in [σ + D, σ + (r+1)·D) every earlier interval has started by
//     t − D, so the rest's depth there counts the earlier intervals not
//     yet ended — non-increasing — and none of the later ones. So the
//     rest's depth at t − D is at least its depth at t.
//
// Hence depth(t) ≤ depth(t − D) on [L, σ + (r+1)·D), L = max(τ, σ + D), and
// stepping down by D from any such t reaches a t* in [L − D, L) — inside
// the window, since t* ≥ σ ≥ warmUp — that is at least as deep. The
// maximum is therefore attained below L or at or past σ + (r+1)·D. Below L
// ≤ σ + max(W, D) only copies c ≤ max(n, 1) cover t; at or past
// σ + (r+1)·D only copies c > r + 1 − W/D, so c ≥ r + 1 − n. The stored
// intervals with copies 1..n+1 and r−n−1..r therefore have the full depth
// wherever the maximum can be, and no more anywhere (dropping intervals
// only lowers depth), so they have the same maximum. Every job of the block
// ends within two cycles of the first start, so W < 2D, n ≤ 2, and at most
// seven copies are materialised whatever k is.
func (c *Collector) depthIntervals() (starts, ends []des.Time, omitted int64) {
	c.depthStarts = append(c.depthStarts[:0], c.starts...)
	c.depthEnds = append(c.depthEnds[:0], c.ends...)
	b := c.block
	if b.reps == 0 {
		return c.depthStarts, c.depthEnds, 0
	}
	n := int((b.span + b.period - 1) / b.period)
	for cp := 1; cp <= b.reps; cp++ {
		if cp == n+2 && b.reps-n-1 > cp {
			omitted = int64(b.reps-n-1-cp) * b.busy
			cp = b.reps - n - 1
		}
		shift := des.Time(int64(b.period) * int64(cp))
		for i := b.s0; i < b.s1; i++ {
			c.depthStarts = append(c.depthStarts, c.starts[i]+shift)
			c.depthEnds = append(c.depthEnds, c.ends[i]+shift)
		}
	}
	return c.depthStarts, c.depthEnds, omitted
}

// MinOpenRelease reports the earliest release instant among jobs whose
// backlog interval is still open — the oldest in-flight job — or des.Never
// when nothing is in flight. The fast-forward layer requires it to be at or
// past the warm-up before extrapolating: a straggler released before warm-up
// has no response slot, and its recorded completion would not replay the way
// in-window completions do.
func (c *Collector) MinOpenRelease() des.Time {
	min := des.Never
	for i, end := range c.ends {
		if end == des.Never && c.starts[i] < min {
			min = c.starts[i]
		}
	}
	return min
}

// CollectorSnapshot is a copy of the collector's accumulated state, for the
// fast-forward lockstep equivalence tests (boundary-by-boundary comparison of
// an extrapolated run against a fully simulated one).
type CollectorSnapshot struct {
	Released          int
	Completed         int
	CompletedReleased int
	LateCompleted     int
	Dropped           int
	Resp              []float64
	Starts, Ends      []des.Time
}

// DebugSnapshot copies the collector's counters and slot arrays, with the
// run-length block expanded: the arrays are the ones full simulation would
// have built.
func (c *Collector) DebugSnapshot() CollectorSnapshot {
	b := c.block
	return CollectorSnapshot{
		Released:          c.released,
		Completed:         c.completed,
		CompletedReleased: c.completedReleased,
		LateCompleted:     c.lateCompleted,
		Dropped:           c.dropped,
		Resp:              expandBlock(c.resp, b.r0, b.r1, b.reps, 0),
		Starts:            expandBlock(c.starts, b.s0, b.s1, b.reps, b.period),
		Ends:              expandBlock(c.ends, b.s0, b.s1, b.reps, b.period),
	}
}

// expandBlock copies xs with xs[lo:hi] repeated reps more times right after
// itself, copy c shifted by c·shift (0 for response times).
func expandBlock[T float64 | des.Time](xs []T, lo, hi, reps int, shift des.Time) []T {
	out := make([]T, 0, len(xs)+reps*(hi-lo))
	out = append(out, xs[:hi]...)
	for c := 1; c <= reps; c++ {
		if shift == 0 {
			out = append(out, xs[lo:hi]...)
			continue
		}
		d := T(int64(shift) * int64(c))
		for _, x := range xs[lo:hi] {
			out = append(out, x+d)
		}
	}
	return append(out, xs[hi:]...)
}

// recordRelease, recordDone, and recordDiscard are the collector's recording
// taps, called by the lifecycle methods while recording is on.
func (c *Collector) recordRelease(j *rt.Job) {
	c.recOps = append(c.recOps, ffOp{
		kind:  opRelease,
		inWin: j.MetricsSlot >= 0,
		at:    j.Release,
	})
}

func (c *Collector) recordDone(j *rt.Job, now des.Time, inWin bool) {
	op := ffOp{
		kind:    opDone,
		inWin:   inWin,
		hasResp: j.MetricsSlot >= 0,
		slot:    j.BacklogSlot,
		at:      now,
	}
	if op.hasResp {
		op.respSlot = j.MetricsSlot
		op.late = now > j.Deadline
		op.val = c.resp[j.MetricsSlot]
	}
	c.recOps = append(c.recOps, op)
}

func (c *Collector) recordDiscard(j *rt.Job, now des.Time) {
	c.recOps = append(c.recOps, ffOp{
		kind:    opDiscard,
		hasResp: j.MetricsSlot >= 0,
		slot:    j.BacklogSlot,
		at:      now,
	})
}
