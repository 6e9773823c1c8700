package metrics

import (
	"fmt"
	"math"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// Collector is the streaming counterpart of Evaluate: it consumes job
// lifecycle events as the simulation produces them — releases from the
// workload generator, completions from the schedulers via rt.JobWatcher —
// and retains only counters, one response-time float per released job, and
// one backlog interval per job. The jobs themselves can be recycled the
// moment they are recorded, so a run's live memory is O(in-flight jobs)
// instead of O(all jobs ever released).
//
// Bit-identity with EvaluateSLO is a hard invariant (the repository's
// sim-determinism rule: no order-sensitive float accumulation may change).
// Evaluate walks the generator's job list in release order, so its
// response-time mean sums floats in release order and its quantiles sort
// that same multiset. The collector pins the identical order by assigning
// every in-window released job a slot (Job.MetricsSlot) at release time and
// writing the response time into that slot at completion time: completions
// may arrive in any order, but Summary folds the slots back in release
// order. Unfilled slots (jobs that never finished) hold NaN and are skipped,
// exactly as Evaluate skips jobs with Done unset. The admission-backlog
// profile is likewise order-independent: every released job gets an
// interval record (Job.BacklogSlot) whose endpoints match what EvaluateSLO
// reads off retained jobs, and queueDepth derives the depth statistics from
// the interval multiset alone. TestCollectorMatchesEvaluate and the sim
// streaming-equivalence tests pin all of this.
//
// Missed-job accounting needs no deadline timers: an in-window released job
// has Deadline < horizon by construction, so at the horizon every such job
// is either completed (late or not — lateness is decided at completion) or
// missed. Summary therefore derives
//
//	Missed = lateCompleted + (released − completedReleased)
//
// which equals Evaluate's per-job Missed scan.
type Collector struct {
	warmUp, horizon des.Time
	sloMS           float64

	released          int // in-window released jobs (deadline decidable)
	completed         int // finishes inside the window, released or not
	completedReleased int // in-window released jobs that finished
	lateCompleted     int // …of which after their deadline
	dropped           int // in-window released jobs discarded

	// resp holds one response-time slot per in-window released job, in
	// release order; NaN marks a job that has not (yet) finished.
	resp []float64
	// starts and ends hold one backlog interval per released job (all of
	// them, unlike resp), in release order: the release instant paired
	// with the completion/discard instant, des.Never while pending.
	starts, ends []des.Time
	// scratch and sorted are Summary's reused buffers: the release-order
	// compaction (mean summation order) and its sorted copy (quantiles).
	scratch []float64
	sorted  []float64
	// depthStarts and depthEnds are queueDepth's reused sort scratch —
	// the live interval slices cannot be sorted in place without breaking
	// the BacklogSlot indexing.
	depthStarts, depthEnds []des.Time

	// flags holds each response slot's release-time attribution, parallel
	// to resp: appendSlot is the only place either slice grows.
	flags []slotFlags

	// Degraded-window attribution (fault injection, DESIGN.md §13): the
	// injector toggles degraded at each SM-degradation window edge, and
	// every in-window released job records it as flagDegraded so
	// completions can be judged against the degraded subset.
	degraded             bool
	degReleased          int
	degCompletedReleased int
	degLateCompleted     int

	// Fleet-degraded attribution (cluster layer, DESIGN.md §15): the
	// dispatcher raises fleetDegraded while at least one device is down,
	// and releases record it as flagFleetDegraded so completions can be
	// judged against the degraded-fleet subset.
	fleetDegraded        bool
	fltReleased          int
	fltCompletedReleased int
	fltLateCompleted     int

	// Fast-forward measurement-cycle recording (ff.go): while recording,
	// every lifecycle call appends an op so Replay can re-apply the cycle's
	// metric writes over extrapolated cycles.
	recording         bool
	recOps            []ffOp
	recStartsBase     int
	recRespBase       int
	recPerCycleStarts int
	recPerCycleResp   int
	// block is the run-length block Replay leaves (ff.go); the zero value
	// means every slot is stored.
	block ffBlock
}

// NewCollector builds a collector for the measurement window [warmUp,
// horizon). Like Evaluate, a horizon at or before the warm-up panics.
func NewCollector(warmUp, horizon des.Time) *Collector {
	c := &Collector{}
	c.Reset(warmUp, horizon)
	return c
}

// Reset rearms the collector for a new run over [warmUp, horizon), retaining
// its buffers. The SLO is cleared; call SetSLO after Reset to configure one.
func (c *Collector) Reset(warmUp, horizon des.Time) {
	if horizon <= warmUp {
		panic(fmt.Sprintf("metrics: horizon %v not after warm-up %v", horizon, warmUp))
	}
	c.warmUp, c.horizon = warmUp, horizon
	c.sloMS = 0
	c.released, c.completed, c.completedReleased, c.lateCompleted, c.dropped = 0, 0, 0, 0, 0
	c.resp = c.resp[:0]
	c.flags = c.flags[:0]
	c.starts = c.starts[:0]
	c.ends = c.ends[:0]
	c.recording = false
	c.recOps = c.recOps[:0]
	c.block = ffBlock{}
	c.degraded = false
	c.degReleased, c.degCompletedReleased, c.degLateCompleted = 0, 0, 0
	c.fleetDegraded = false
	c.fltReleased, c.fltCompletedReleased, c.fltLateCompleted = 0, 0, 0
}

// SetDegraded flips the degraded-capacity flag; the fault injector calls it
// at each SM-degradation window edge. Releases while the flag is on are
// attributed to the degraded subset of the deadline accounting.
func (c *Collector) SetDegraded(on bool) { c.degraded = on }

// SetFleetDegraded flips the fleet-degraded flag; the cluster dispatcher
// calls it when the first device goes down and when the last one comes back.
// Releases while the flag is on are attributed to the degraded-fleet subset
// of the deadline accounting.
func (c *Collector) SetFleetDegraded(on bool) { c.fleetDegraded = on }

// SetSLO configures the response-time objective, milliseconds (0 = none),
// matching EvaluateSLO's parameter. Call after Reset, before the run.
func (c *Collector) SetSLO(ms float64) { c.sloMS = ms }

// JobReleased records a release. It must be called once per job, in release
// order (the workload generator's event order), before the job reaches a
// scheduler. Every job gets a backlog-interval record; in-window jobs
// additionally get a response-time slot, and jobs whose deadline window
// extends past the measurement interval are marked out-of-window.
func (c *Collector) JobReleased(j *rt.Job, now des.Time) {
	j.BacklogSlot = len(c.starts)
	c.starts = append(c.starts, j.Release)
	c.ends = append(c.ends, des.Never)
	if j.Release < c.warmUp || j.Deadline >= c.horizon {
		j.MetricsSlot = -1
	} else {
		j.MetricsSlot = len(c.resp)
		c.released++
		var f slotFlags
		if c.degraded {
			f |= flagDegraded
			c.degReleased++
		}
		if c.fleetDegraded {
			f |= flagFleetDegraded
			c.fltReleased++
		}
		c.appendSlot(f)
	}
	if c.recording {
		c.recordRelease(j)
	}
}

// JobDone implements rt.JobWatcher: it records a completion. Completions
// inside the window count toward FPS whether or not the job was released
// inside it (the device was busy with it either way); response times are
// recorded for in-window released jobs only, into their release-order slot.
func (c *Collector) JobDone(j *rt.Job, now des.Time) {
	if j.BacklogSlot >= 0 {
		c.ends[j.BacklogSlot] = now
	}
	inWin := now >= c.warmUp && now < c.horizon
	if inWin {
		c.completed++
	}
	if j.MetricsSlot >= 0 {
		c.completedReleased++
		if now > j.Deadline {
			c.lateCompleted++
		}
		c.resp[j.MetricsSlot] = j.ResponseTime().Milliseconds()
		f := c.flags[j.MetricsSlot]
		if f&flagDegraded != 0 {
			c.degCompletedReleased++
			if now > j.Deadline {
				c.degLateCompleted++
			}
		}
		if f&flagFleetDegraded != 0 {
			c.fltCompletedReleased++
			if now > j.Deadline {
				c.fltLateCompleted++
			}
		}
	}
	if c.recording {
		c.recordDone(j, now, inWin)
	}
}

// JobDiscarded implements rt.JobWatcher. A discarded job leaves the
// backlog at the discard instant and counts as dropped when it was released
// in-window; its response slot stays unfilled, so it is counted missed at
// Summary time, exactly like a job still unfinished at the horizon.
func (c *Collector) JobDiscarded(j *rt.Job, now des.Time) {
	if j.BacklogSlot >= 0 {
		c.ends[j.BacklogSlot] = now
	}
	if j.MetricsSlot >= 0 {
		c.dropped++
	}
	if c.recording {
		c.recordDiscard(j, now)
	}
}

// slotFlags is a response slot's release-time attribution.
type slotFlags uint8

// Response-slot attribution bits.
const (
	flagDegraded      slotFlags = 1 << iota // released inside an SM-degradation window
	flagFleetDegraded                       // released while a fleet device was down
)

// appendSlot opens an unfilled response slot with the given attribution.
// Every response slot — live releases and fast-forward replays alike — is
// opened here, which keeps flags parallel to resp by construction.
func (c *Collector) appendSlot(f slotFlags) {
	c.resp = append(c.resp, math.NaN())
	c.flags = append(c.flags, f)
}

// Summary folds the counters into the run summary. It may be called once the
// simulation has run to the horizon; calling it earlier summarises the
// prefix seen so far.
func (c *Collector) Summary() Summary {
	s := Summary{
		WarmUp:    c.warmUp,
		Horizon:   c.horizon,
		Released:  c.released,
		Completed: c.completed,
		Missed:    c.lateCompleted + (c.released - c.completedReleased),
		Dropped:   c.dropped,
	}
	// Degraded-subset deadline accounting, derived exactly like Missed:
	// a degraded release either completed (lateness decided then) or not.
	s.Faults.DegradedReleased = c.degReleased
	s.Faults.DegradedMissed = c.degLateCompleted + (c.degReleased - c.degCompletedReleased)
	if c.degReleased > 0 {
		s.Faults.DegradedDMR = float64(s.Faults.DegradedMissed) / float64(c.degReleased)
	}
	// Fleet-degraded subset, derived identically.
	s.Fleet.FleetDegradedReleased = c.fltReleased
	s.Fleet.FleetDegradedMissed = c.fltLateCompleted + (c.fltReleased - c.fltCompletedReleased)
	if c.fltReleased > 0 {
		s.Fleet.FleetDegradedDMR = float64(s.Fleet.FleetDegradedMissed) / float64(c.fltReleased)
	}
	// Compact the slots in release order — Evaluate's iteration order —
	// and count SLO hits over the identical float comparisons. A
	// run-length block's response slots compact to resp[lo:hi] and recur
	// b.reps more times in place, so its hits count that many times more.
	b := c.block
	resp := c.scratch[:0]
	sloHits := 0
	compact := func(slots []float64) {
		for _, r := range slots {
			if !math.IsNaN(r) {
				resp = append(resp, r)
				if c.sloMS > 0 && r <= c.sloMS {
					sloHits++
				}
			}
		}
	}
	compact(c.resp[:b.r0])
	lo, hits := len(resp), sloHits
	compact(c.resp[b.r0:b.r1])
	hi := len(resp)
	sloHits += b.reps * (sloHits - hits)
	compact(c.resp[b.r1:])
	c.scratch = resp
	starts, ends, extra := c.depthIntervals()
	c.sorted = s.finish(resp, respRun{lo: lo, hi: hi, reps: b.reps}, c.sorted[:0], starts, ends, extra, c.sloMS, sloHits)
	return s
}
