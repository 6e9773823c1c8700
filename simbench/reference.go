package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// The reference is a fixed piece of host work that shares no code with the
// simulator: a walk along a random cycle through a 1 MiB table, so each step
// waits on a dependent load from the L2 or L3 cache. It runs before and after
// every timed segment of a pass, and each segment's wall time is read against
// the reference times on either side of it (see README.md, "Noise"). On the
// shared VM the benchmark was tuned on, walks through caches tracked the host
// slowing down and recovering more closely than an arithmetic loop or a walk
// through main memory did.
const (
	refTable   = 1 << 18
	refSteps   = 1 << 22
	refMinRuns = 4
	// refSeconds is the host time unit of sim_s_per_host_s: about one
	// walk's time on that VM unloaded. refFrac is the share of a segment's
	// wall time the reference runs for after it, and refFirst the
	// reference time before the first segment.
	refSeconds = 0.03
	refFrac    = 0.5
	refFirst   = 0.3
)

// hostClock holds a run's reference blocks, in time order, and scales the
// wall time of the segments between them to the reference speed.
type hostClock struct{ refs [][]float64 }

func (c *hostClock) ref(minSeconds float64) { c.refs = append(c.refs, referenceBlock(minSeconds)) }

// segment takes the wall time of a segment that ran just after the latest
// reference block, runs the next block, and returns the segment's time at
// the reference speed: its wall time over the median walk time on either
// side of it, times refSeconds.
func (c *hostClock) segment(wall float64) float64 {
	c.ref(refFrac * wall)
	n := len(c.refs)
	return wall / median(slices.Concat(c.refs[n-2], c.refs[n-1])) * refSeconds
}

// referenceBlock runs the reference until minSeconds have passed, and at
// least refMinRuns times, and returns each run's wall time in seconds. Its
// table is built before the first clock starts and dropped after.
func referenceBlock(minSeconds float64) []float64 {
	// Sattolo's shuffle of the identity makes next one cycle through every
	// entry.
	r := rand.New(rand.NewPCG(0x5EED, 0xBE7C))
	next := make([]uint32, refTable)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := refTable - 1; i > 0; i-- {
		j := r.IntN(i)
		next[i], next[j] = next[j], next[i]
	}

	var times []float64
	for total := 0.0; len(times) < refMinRuns || total < minSeconds; {
		start := time.Now()
		i := uint32(0)
		for range refSteps {
			i = next[i]
		}
		d := time.Since(start).Seconds()
		refSink += i
		times = append(times, d)
		total += d
	}
	return times
}

// refSink keeps the walk's result live, so the compiler cannot drop it.
var refSink uint32
