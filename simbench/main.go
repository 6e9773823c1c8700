// Command simbench is the simulator's benchmark: it runs one named workload
// for a fixed wall-clock budget, checks every output, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	go run . -workload paper-grid -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (host throughput, set-up
// time, peak memory); with -trace 1 the per-layer ledger. README.md lists
// the workloads, the metrics, and which layer metric should move which
// end-to-end metric. The process must run from the repository root.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"sgprs/internal/des"
	"sgprs/internal/memo"
	"sgprs/internal/sim"
)

const (
	// minPasses is the fewest timed passes a run makes, so the reported
	// median always has a middle.
	minPasses = 3
	// A set-up chunk repeats the cold offline phase for setupChunkSeconds,
	// at least setupChunkReps times, and keeps its fastest repetition.
	// setupChunks chunks run before the first pass, and one before each
	// later pass of an untraced run.
	setupChunks       = 5
	setupChunkReps    = 3
	setupChunkSeconds = 0.1
	// profileHz is the CPU-profile sampling rate of a traced run.
	profileHz = 500
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (RunConfig.Seed)")
	seconds := fs.Float64("seconds", 25, "timed-pass budget, wall seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	fmt.Println("machine:", machineStamp())

	cfgs, err := w.runs(*seed)
	if err != nil {
		return err
	}
	norm := make([]sim.RunConfig, len(cfgs))
	for i, c := range cfgs {
		if err := c.Normalize(); err != nil {
			return err
		}
		norm[i] = c
	}

	// Set-up: chunks of repeated cold offline phases, each on a fresh cache.
	// The host switches between a fast and a slow state every fraction of a
	// second, and set-up takes up to twice as long in the slow one. A
	// chunk's fastest repetition is its time in the fast state, so the
	// median over chunks does not depend on how the run's time happened to
	// split between the states. The most recent warmed cache serves the
	// next pass.
	var setups []setupTimes
	var cache *memo.Cache
	setUp := func() error {
		var best setupTimes
		for reps, start := 0, time.Now(); reps < setupChunkReps || time.Since(start).Seconds() < setupChunkSeconds; reps++ {
			s, c, err := coldSetup(norm)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if reps == 0 || s.total < best.total {
				best = s
			}
			cache = c
		}
		setups = append(setups, best)
		return nil
	}
	for range setupChunks {
		if err := setUp(); err != nil {
			return err
		}
	}

	// Timed passes. In a traced run they execute under the CPU profiler, whose
	// flat samples give every layer's cpu_share.
	var prof bytes.Buffer
	if *traced == 1 {
		// A higher rate than pprof's 100 Hz resolves the small layers. The
		// runtime keeps it, though StartCPUProfile reports on standard
		// error that it could not set its own; shares are rate-free.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	ck := checker{w: w, seed: *seed}
	var walls, scaled, peaks []float64
	var clock hostClock
	if *traced == 0 {
		clock.ref(refFirst)
	}
	var first []sim.Result
	var rt0 runtimeSample
	for start := time.Now(); len(walls) < minPasses || time.Since(start).Seconds() < *seconds; {
		if *traced == 0 && len(walls) > 0 {
			// Set-up samples spread over the whole run, not one burst, so
			// its median sees the same host as the passes. A traced run
			// keeps them out of the CPU profile.
			if err := setUp(); err != nil {
				return err
			}
		}
		// Every pass starts from a collected heap with free memory returned
		// to the OS, as a new process would, and its own peak-RSS window.
		debug.FreeOSMemory()
		if len(walls) == 0 {
			rt0 = readRuntime()
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var wall, sc float64
		results, errs := runPass(w, cfgs, *seed, cache, func(f func()) {
			t := time.Now()
			f()
			d := time.Since(t).Seconds()
			wall += d
			if *traced == 0 {
				sc += clock.segment(d)
			}
		})
		walls, scaled = append(walls, wall), append(scaled, sc)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, rss)
		ck.pass(results, errs)
		if first == nil {
			first = results
		}
	}
	// The runtime's CPU counters advance at each collection, so a final one
	// closes the last pass's share.
	runtime.GC()
	rts := readRuntime().sub(rt0)
	if *traced == 1 {
		pprof.StopCPUProfile()
	}

	untraced := median(walls)
	var simSec float64
	for _, c := range norm {
		simSec += c.HorizonSec
	}
	fmt.Printf("workload: %s seed=%d runs/pass=%d passes=%d pass_s=%v peak_mb=%v\n", w.name, *seed, len(cfgs), len(walls), roundAll(walls), roundAll(peaks))
	setup := medianOf(setups, func(s setupTimes) time.Duration { return s.total }).Seconds()
	if *traced == 0 {
		blocks := make([]float64, len(clock.refs))
		for i, b := range clock.refs {
			blocks[i] = median(b)
		}
		fmt.Printf("reference: block_median_s=%v unscaled_sim_s_per_host_s=%v unscaled_setup_s=%v\n", roundAll(blocks), simSec/untraced, setup)
	}
	fmt.Printf("digest: %s\n", ck.digest)
	fmt.Printf("headline: %s\n", headline(w, norm, first))

	rec := record{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rec.Metrics[name] = metric{v, unit} }
	if *traced == 0 {
		// Times are at the reference speed (hostClock): each segment of a
		// pass over the reference on either side of it, set-up over the
		// run's median walk.
		put("sim_s_per_host_s", simSec/median(scaled), "s/s")
		put("setup_s", setup/median(slices.Concat(clock.refs...))*refSeconds, "s")
		put("peak_rss_mb", median(peaks), "MB")
	} else {
		tr, tracedWall := tracedPass(w, norm, cfgs, cache, first, &ck)
		shares, runnerOverhead, err := foldProfile(prof.Bytes())
		if err != nil {
			return err
		}
		if err := ledger(put, norm, cache, first, setups, tr, shares, rts, len(walls)); err != nil {
			return err
		}
		put("trace.overhead_frac", tracedWall.Seconds()/untraced-1, "fraction")
		put("runner.overhead_frac", runnerOverhead, "fraction")
		// failed_frac is a per-layer metric: it reads 0 on a correct
		// program, which an end-to-end metric must never do. The record's
		// failed and attempted carry it on every run.
		put("failed_frac", ck.failedFrac(), "fraction")
	}
	fmt.Printf("failed_frac: %v (%d of %d runs)\n", ck.failedFrac(), ck.failed, ck.attempted)
	for _, msg := range ck.msgs {
		fmt.Println("check failed:", msg)
	}
	rec.Attempted, rec.Failed, rec.Correct = ck.attempted, ck.failed, ck.failed == 0
	out, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tracedPass runs the workload once more with the per-layer seams timed. A
// fast-forward workload is rerun through Session.Run unwrapped.
func tracedPass(w workloadDef, norm, cfgs []sim.RunConfig, cache *memo.Cache, first []sim.Result, ck *checker) (*tracer, time.Duration) {
	tr := &tracer{}
	start := time.Now()
	if w.fastForward {
		results, errs := runPass(w, cfgs, ck.seed, cache, func(f func()) { f() })
		wall := time.Since(start)
		ck.pass(results, errs)
		return tr, wall
	}
	for i, cfg := range norm {
		kernels, starts, finishes := tr.kernels, tr.kernelStarts, tr.kernelFinishes
		r, err := tracedRun(cfg, cache, tr)
		ck.attempted++
		switch {
		case err != nil:
			ck.fail("traced run %d: %v", i, err)
		case !reflect.DeepEqual(r, first[i]):
			ck.fail("traced run %d (%s, %d tasks) differs from Session.Run", i, cfg.Name, cfg.NumTasks)
		case tr.kernels-kernels != tr.kernelFinishes-finishes || tr.kernelFinishes-finishes > tr.kernelStarts-starts:
			ck.fail("traced run %d: observer saw %d kernel starts and %d finishes, devices completed %d",
				i, tr.kernelStarts-starts, tr.kernelFinishes-finishes, tr.kernels-kernels)
		}
	}
	return tr, time.Since(start)
}

// ledger fills the per-layer metrics. Seams a workload does not reach read 0.
func ledger(put func(string, float64, string), norm []sim.RunConfig, cache *memo.Cache, first []sim.Result,
	setups []setupTimes, tr *tracer, shares map[string]float64, rts runtimeSample, passes int) error {
	put("des.events", float64(tr.events), "count")
	put("des.host_ns_per_event", ratio(float64(tr.runUntil.Nanoseconds()), float64(tr.events)), "ns")
	put("gpu.kernels", float64(tr.kernels), "count")
	put("gpu.recompute_fast", float64(tr.recFast), "count")
	put("gpu.recompute_lean", float64(tr.recLean), "count")
	put("gpu.recompute_full", float64(tr.recFull), "count")
	put("gpu.full_recompute_frac", ratio(float64(tr.recFull), float64(tr.recFast+tr.recLean+tr.recFull)), "fraction")
	put("sched.releases", float64(tr.sched.calls), "count")
	put("sched.on_release_ns", tr.sched.selfNSPerCall(), "ns")
	put("metrics.sink_calls", float64(tr.sink.calls), "count")
	put("metrics.sink_ns", tr.sink.selfNSPerCall(), "ns")
	put("metrics.summary_ms", ms(tr.summary), "ms")
	put("cluster.on_release_ns", tr.fleet.selfNSPerCall(), "ns")
	put("cluster.migrations", float64(tr.migrations), "count")
	put("cluster.shed_releases", float64(tr.shedReleases), "count")

	var skipped, transient, retries float64
	var skippedNS, horizonNS float64
	for i, r := range first {
		if n := r.FastForward.CyclesSkipped; n > 0 {
			// A skipped cycle is one task period (fast-forward needs
			// every task on one period).
			tasks, err := buildTasks(norm[i], referenceGraph(cache))
			if err != nil {
				return err
			}
			skippedNS += float64(n) * float64(tasks[0].Period)
		}
		skipped += float64(r.FastForward.CyclesSkipped)
		horizonNS += float64(des.FromSeconds(norm[i].HorizonSec))
		transient += float64(r.Summary.Faults.TransientFaults)
		retries += float64(r.Summary.Faults.Retries)
	}
	put("sim.ff_cycles_skipped", skipped, "count")
	put("sim.ff_simulated_frac", 1-skippedNS/horizonNS, "fraction")
	put("fault.transient_faults", transient, "count")
	put("fault.retries", retries, "count")

	put("workload.build_ms", ms(medianOf(setups, func(s setupTimes) time.Duration { return s.build })), "ms")
	put("offline.graph_ms", ms(medianOf(setups, func(s setupTimes) time.Duration { return s.graph })), "ms")
	put("offline.profile_ms", ms(medianOf(setups, func(s setupTimes) time.Duration { return s.prof })), "ms")
	st := setups[len(setups)-1].stats
	put("offline.profile_hit_frac", ratio(float64(st.ProfileHits), float64(st.ProfileHits+st.ProfileMisses)), "fraction")

	n := float64(passes)
	put("go.allocs", rts.allocs/n, "count")
	put("go.alloc_mb", rts.allocBytes/n/(1<<20), "MB")
	put("go.gc_cpu_frac", ratio(rts.gcCPU, rts.totalCPU), "fraction")
	for _, l := range layers {
		put(l+".cpu_share", shares[l], "fraction")
	}
	return nil
}

// checker accumulates the output checks behind failed_frac.
type checker struct {
	w                 workloadDef
	seed              uint64
	digest            string
	attempted, failed int
	msgs              []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failedFrac() float64 { return ratio(float64(c.failed), float64(c.attempted)) }

// pass checks one untraced pass: every run succeeded and is within bounds,
// and the pass digest equals the first pass's — and, at the default seed,
// the digest pinned for the workload. A pass failing a digest check fails
// all of its runs.
func (c *checker) pass(results []sim.Result, errs []error) {
	c.attempted += len(results)
	bad := 0
	for i, r := range results {
		if err := errs[i]; err != nil {
			c.fail("run %d: %v", i, err)
			bad++
		} else if err := checkBounds(c.w, r); err != nil {
			c.fail("run %d (%s, %d tasks): %v", i, r.Name, r.Tasks, err)
			bad++
		}
	}
	d := digest(results, errs)
	var why string
	switch {
	case c.digest == "":
		c.digest = d
		if c.seed == defaultSeed && d != c.w.pinned {
			why = fmt.Sprintf("digest %s at the default seed, pinned %s", d, c.w.pinned)
		}
	case d != c.digest:
		why = fmt.Sprintf("digest %s differs from the first pass's %s", d, c.digest)
	}
	if why != "" {
		c.msgs = append(c.msgs, why)
		c.failed += len(results) - bad
	}
}

// checkBounds checks one run's summary for values no correct simulation can
// produce.
func checkBounds(w workloadDef, r sim.Result) error {
	s := r.Summary
	for _, f := range []struct {
		name string
		v    float64
	}{{"DMR", s.DMR}, {"drop rate", s.DropRate}, {"SLO hit rate", s.SLOHitRate}, {"utilisation", r.DeviceUtilization}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("%s %v outside [0, 1]", f.name, f.v)
		}
	}
	// Released counts in-window releases whose deadline is in the window;
	// Completed counts every in-window completion, warm-up releases
	// included, so it may exceed Released − Missed but never fall short.
	if !(0 <= s.Dropped && s.Dropped <= s.Missed && s.Missed <= s.Released) {
		return fmt.Errorf("want 0 <= dropped %d <= missed %d <= released %d", s.Dropped, s.Missed, s.Released)
	}
	if s.Released-s.Missed > s.Completed {
		return fmt.Errorf("released %d - missed %d exceeds completed %d", s.Released, s.Missed, s.Completed)
	}
	if w.fastForward && r.FastForward.CyclesSkipped == 0 {
		return errors.New("fast-forward skipped no cycles")
	}
	return nil
}

// digest hashes a pass's results exactly: %v prints every float in its
// shortest round-trip form.
func digest(results []sim.Result, errs []error) string {
	h := sha256.New()
	for i, r := range results {
		fmt.Fprintf(h, "%+v|%v\n", r, errs[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runtimeSample holds cumulative Go runtime counters: heap objects and bytes
// allocated, GC CPU seconds, and GOMAXPROCS × wall seconds.
type runtimeSample struct{ allocs, allocBytes, gcCPU, totalCPU float64 }

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(setups []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = float64(f(s))
	}
	return time.Duration(median(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
