package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// TestReplayKeepsFlagsParallel pins the degraded and fleet-degraded flags to
// their response slots across a fast-forward replay: a release after the
// replay must be judged by its own flag, not by one at a stale index. Here a
// degraded release completes on time, so nothing is missed in either the
// whole run or the degraded subset.
func TestReplayKeepsFlagsParallel(t *testing.T) {
	period := des.FromMillis(100)
	task := mkTask(t, 0, period)
	c := NewCollector(0, des.FromSeconds(60))
	release := func(i int) {
		j := task.NewJob(i, des.Time(int64(period)*int64(i)))
		c.JobReleased(j, j.Release)
		j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(10)))
		c.JobDone(j, j.FinishedAt)
	}
	release(0)
	c.BeginRecording()
	release(1)
	c.EndRecording()
	c.Replay(5, period)
	c.SetDegraded(true)
	c.SetFleetDegraded(true)
	release(7)
	s := c.Summary()
	if s.Released != 8 || s.Missed != 0 {
		t.Fatalf("released=%d missed=%d, want 8 and 0", s.Released, s.Missed)
	}
	if s.Faults.DegradedReleased != 1 || s.Faults.DegradedMissed != 0 {
		t.Errorf("degraded released=%d missed=%d, want 1 and 0",
			s.Faults.DegradedReleased, s.Faults.DegradedMissed)
	}
	if s.Fleet.FleetDegradedReleased != 1 || s.Fleet.FleetDegradedMissed != 0 {
		t.Errorf("fleet-degraded released=%d missed=%d, want 1 and 0",
			s.Fleet.FleetDegradedReleased, s.Fleet.FleetDegradedMissed)
	}
}

// ffJobSpec is one job of a synthetic periodic cycle: released off into its
// cycle, leaving the backlog delay later — completed or discarded.
type ffJobSpec struct {
	off, delay des.Time
	discard    bool
}

// ffEvent is one lifecycle event of the synthetic stream: a release
// (close false) or the end of job i of cycle cyc.
type ffEvent struct {
	at     des.Time
	close  bool
	cyc, i int
}

// ffStream is a synthetic fast-forward-eligible job stream: every cycle of
// length period repeats the same job pattern jobs[:n], shifted, as a
// steady-state simulation does. jobs[n:] is an optional burst (see
// ffLayout).
type ffStream struct {
	period des.Time
	task   *rt.Task
	jobs   []ffJobSpec
	n      int
	events []ffEvent
}

// ffLayout says which stretch of the stream to lay out: cycles [0, cycles)
// except [skipFrom, skipTo), which a fast-forward never feeds, with ends at
// or past end never happening (those jobs stay pending). A burst of jobs is
// released at the last release instant of cycle burstCycle when it is
// positive, right after that cycle's own releases, ending in the cycles
// after it.
type ffLayout struct {
	cycles, skipFrom, skipTo, burstCycle int
	end                                  des.Time
}

// newFFStream draws a random cycle pattern. Releases fall in (0, period];
// every job ends within two cycles of its cycle's start — pipelined into the
// next cycle or not — some at zero length, some exactly when another job is
// released or ends, some discarded (their response slot stays NaN).
func newFFStream(t *testing.T, rng *rand.Rand, lay ffLayout) *ffStream {
	t.Helper()
	D := des.FromMillis(100)
	st := &ffStream{period: D, task: mkTask(t, 0, des.Time(int64(D)*int64(5+rng.Intn(15))/10))}
	offs := make([]des.Time, 1+rng.Intn(6))
	for i := range offs {
		offs[i] = des.Time(1 + rng.Int63n(int64(D)))
		if i > 0 && rng.Intn(4) == 0 {
			offs[i] = offs[i-1] // simultaneous releases
		}
	}
	slices.Sort(offs)
	for _, off := range offs {
		maxDelay := 2*D - off
		var delay des.Time
		switch rng.Intn(5) {
		case 0:
			delay = 0
		case 1: // end exactly at a release of this cycle or the next
			o := offs[rng.Intn(len(offs))] + des.Time(rng.Intn(2))*D
			delay = min(max(o-off, 0), maxDelay)
		case 2: // end exactly where an earlier job of the pattern ends
			if n := len(st.jobs); n > 0 {
				p := st.jobs[rng.Intn(n)]
				delay = min(max(p.off+p.delay-off, 0), maxDelay)
			}
		default:
			delay = des.Time(rng.Int63n(int64(maxDelay) + 1))
		}
		st.jobs = append(st.jobs, ffJobSpec{off: off, delay: delay, discard: rng.Intn(5) == 0})
	}
	st.n = len(st.jobs)
	for cyc := 0; cyc < lay.cycles; cyc++ {
		if cyc == lay.skipFrom {
			cyc = lay.skipTo
		}
		st.layCycle(cyc, 0, st.n, lay.end)
	}
	if lay.burstCycle > 0 {
		// The burst lands where the last skipped copy's pipelined jobs may
		// still be open: only the seam copies Summary materialises see
		// them there.
		last := offs[len(offs)-1]
		for i := 0; i < 1+rng.Intn(8); i++ {
			st.jobs = append(st.jobs, ffJobSpec{off: last, delay: D - last + des.Time(1+rng.Int63n(int64(2*D)))})
		}
		st.layCycle(lay.burstCycle, st.n, len(st.jobs), lay.end)
	}
	slices.SortStableFunc(st.events, func(a, b ffEvent) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.close != b.close:
			if a.close {
				return 1 // a job's zero-length end follows its release
			}
			return -1
		case a.cyc != b.cyc:
			return a.cyc - b.cyc
		}
		return a.i - b.i
	})
	return st
}

// layCycle appends the events of jobs[lo:hi] released in cycle cyc.
func (st *ffStream) layCycle(cyc, lo, hi int, end des.Time) {
	base := des.Time(int64(st.period) * int64(cyc))
	for i := lo; i < hi; i++ {
		j := st.jobs[i]
		st.events = append(st.events, ffEvent{at: base + j.off, cyc: cyc, i: i})
		if at := base + j.off + j.delay; at < end {
			st.events = append(st.events, ffEvent{at: at, close: true, cyc: cyc, i: i})
		}
	}
}

// feed delivers the stream's events that keep accepts to c, in order; jobs
// maps each (cycle, job) to the job object c has seen released.
func (st *ffStream) feed(c *Collector, jobs map[[2]int]*rt.Job, keep func(ffEvent) bool) {
	for _, ev := range st.events {
		if !keep(ev) {
			continue
		}
		key := [2]int{ev.cyc, ev.i}
		if !ev.close {
			j := st.task.NewJob(ev.cyc, ev.at)
			jobs[key] = j
			c.JobReleased(j, ev.at)
			continue
		}
		j := jobs[key]
		if st.jobs[ev.i].discard {
			j.Discard(ev.at)
			c.JobDiscarded(j, ev.at)
		} else {
			j.Stages[len(j.Stages)-1].MarkFinished(ev.at)
			c.JobDone(j, ev.at)
		}
	}
}

// between accepts events in (from, to].
func between(from, to des.Time) func(ffEvent) bool {
	return func(ev ffEvent) bool { return ev.at > from && ev.at <= to }
}

// fastForward runs the stream through c the way the simulation driver does:
// plain up to the start of cycle rec, cycle rec recorded, k cycles replayed,
// the jobs live at the end of the recorded cycle warped k cycles forward,
// and the rest — the burst's releases first — plain again.
func (st *ffStream) fastForward(c *Collector, rec, k int) {
	jobs := map[[2]int]*rt.Job{}
	b := des.Time(int64(st.period) * int64(rec))
	t3 := b + st.period
	st.feed(c, jobs, between(-1, b))
	c.BeginRecording()
	st.feed(c, jobs, between(b, t3))
	c.EndRecording()
	c.Replay(k, st.period)
	delta := des.Time(int64(st.period) * int64(k))
	for key, j := range jobs {
		if key[0] == rec && !j.Done && !j.Discarded {
			j.Release += delta
			j.Deadline += delta
			c.ShiftSlots(j)
			jobs[[2]int{rec + k, key[1]}] = j
		}
	}
	st.feed(c, jobs, func(ev ffEvent) bool { return ev.i >= st.n && !ev.close })
	st.feed(c, jobs, func(ev ffEvent) bool { return ev.at > t3+delta && (ev.i < st.n || ev.close) })
}

// TestReplayMatchesExpandedCycles is the run-length collector's exactness
// test: over random cycle patterns — pipelined ends, discards, zero-length
// and simultaneous intervals, ends on other jobs' release instants, and a
// burst of releases at the seam after the skipped cycles — a fast-forwarded
// collector must match one fed every cycle, for k = 1..64: the Summary byte
// for byte and the expanded snapshot bit for bit.
func TestReplayMatchesExpandedCycles(t *testing.T) {
	const rec = 4
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		for k := 1; k <= 64; k++ {
			D := des.FromMillis(100)
			warmUp := 2*D - D/3
			// The horizon leaves every replayed deadline inside the window,
			// then some tail: out-of-window releases and pending jobs.
			horizon := des.Time(int64(D)*int64(rec+k+4)) + des.Time(rng.Int63n(int64(3*D)))
			lay := ffLayout{end: horizon + D/2}
			lay.cycles = int(lay.end/D) + 1
			if trial%2 == 1 {
				lay.burstCycle = rec + k
			}
			st := newFFStream(t, rng, lay)
			slo := float64(rng.Intn(150))

			full := NewCollector(warmUp, horizon)
			full.SetSLO(slo)
			st.feed(full, map[[2]int]*rt.Job{}, func(ffEvent) bool { return true })
			ff := NewCollector(warmUp, horizon)
			ff.SetSLO(slo)
			st.fastForward(ff, rec, k)

			want, got := full.Summary(), ff.Summary()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d k=%d pattern %+v: summary differs\nwant %+v\ngot  %+v",
					trial, k, st.jobs, want, got)
			}
			if !snapshotsBitEqual(full.DebugSnapshot(), ff.DebugSnapshot()) {
				t.Fatalf("trial %d k=%d pattern %+v: expanded snapshot differs", trial, k, st.jobs)
			}
		}
	}
}

// snapshotsBitEqual compares snapshots with response slots by bit pattern
// (unfilled slots hold NaN).
func snapshotsBitEqual(a, b CollectorSnapshot) bool {
	ra, rb := a.Resp, b.Resp
	a.Resp, b.Resp = nil, nil
	return reflect.DeepEqual(a, b) && slices.EqualFunc(ra, rb, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestReplayMemoryFlat pins the run-length block's point: the slots a
// fast-forwarded collector stores do not grow with the skipped-cycle count.
func TestReplayMemoryFlat(t *testing.T) {
	const rec = 4
	stored := func(k int) (int, int) {
		D := des.FromMillis(100)
		horizon := des.Time(int64(D) * int64(rec+k+8))
		// Cycles rec+1..rec+k−1 are skipped; their events are never fed.
		lay := ffLayout{cycles: rec + k + 6, skipFrom: rec + 1, skipTo: rec + k,
			end: des.Time(int64(D) * int64(rec+k+6))}
		st := newFFStream(t, rand.New(rand.NewSource(11)), lay)
		c := NewCollector(D, horizon)
		st.fastForward(c, rec, k)
		if s := c.Summary(); s.Released == 0 {
			t.Fatalf("k=%d: nothing released", k)
		}
		return len(c.starts), len(c.resp)
	}
	s10, r10 := stored(10)
	sBig, rBig := stored(1_000_000)
	if s10 != sBig || r10 != rBig {
		t.Errorf("stored slots grow with k: k=10 keeps %d intervals and %d response slots, k=1e6 keeps %d and %d",
			s10, r10, sBig, rBig)
	}
}
