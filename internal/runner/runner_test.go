package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/sim"
)

// testCounts and testHorizon keep the determinism sweeps fast: the light
// half of the ramp at a 2-second horizon still exercises every variant.
var testCounts = []int{2, 4}

const testHorizon = 2

func testBase(name string) sim.RunConfig {
	return sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       name,
		ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: testHorizon,
		Seed:       1,
	}
}

// seriesJobs expands one base configuration over the task counts — the job
// list exp.Series compiles to.
func seriesJobs(base sim.RunConfig, counts []int) []Job {
	jobs := make([]Job, len(counts))
	for i, n := range counts {
		jobs[i] = Job{Variant: base.Name, Tasks: n, Config: withTasks(base, n)}
	}
	return jobs
}

// TestScenarioMatchesSequential proves the determinism claim: for both
// paper scenarios' variant × task-count grids, pooled results are
// bit-identical to the same jobs run in order on one session, regardless of
// worker count.
func TestScenarioMatchesSequential(t *testing.T) {
	for _, scenario := range []int{1, 2} {
		np, err := sim.ScenarioContexts(scenario)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []Job
		for _, v := range sim.ScenarioVariants() {
			base := testBase(v.Name)
			base.Kind = v.Kind
			base.ContextSMs = sim.ContextPool(np, v.OS, 68)
			jobs = append(jobs, seriesJobs(base, testCounts)...)
		}
		sess := sim.NewSession(memo.Default())
		seq := make([]sim.Result, len(jobs))
		for i, j := range jobs {
			if seq[i], err = sess.Run(j.Config); err != nil {
				t.Fatalf("scenario %d %s n=%d sequential: %v", scenario, j.Variant, j.Tasks, err)
			}
		}
		for _, workers := range []int{0, 1, 3, 8} {
			par := Run(context.Background(), jobs, Options{Jobs: workers})
			if err := Err(par); err != nil {
				t.Fatalf("scenario %d jobs=%d: %v", scenario, workers, err)
			}
			for i, r := range par {
				if !reflect.DeepEqual(seq[i], r.Result) {
					t.Errorf("scenario %d jobs=%d: %s n=%d differs from sequential",
						scenario, workers, r.Job.Variant, r.Job.Tasks)
				}
			}
		}
	}
}

// TestSweepSeriesMatchesSequential pins a pooled series to fresh one-shot
// runs of the same configurations: per-worker session reuse is invisible.
func TestSweepSeriesMatchesSequential(t *testing.T) {
	jobs := seriesJobs(testBase("sgprs"), testCounts)
	par := Run(context.Background(), jobs, Options{Jobs: 4})
	for i, j := range jobs {
		want, err := sim.Run(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Err != nil || !reflect.DeepEqual(want, par[i].Result) {
			t.Errorf("n=%d: pooled result differs from a fresh run (err %v)", j.Tasks, par[i].Err)
		}
	}
}

// TestWorkerCountInvariance: one worker and many workers yield identical
// full results (not just summaries).
func TestWorkerCountInvariance(t *testing.T) {
	jobs := seriesJobs(testBase("sgprs"), []int{1, 2, 3, 4})
	one := Run(context.Background(), jobs, Options{Jobs: 1})
	many := Run(context.Background(), jobs, Options{Jobs: 8})
	if !reflect.DeepEqual(one, many) {
		t.Error("results differ between 1 and 8 workers")
	}
}

// TestFailureAttribution: a failing job reports its (variant, task count)
// without cancelling or discarding completed siblings.
func TestFailureAttribution(t *testing.T) {
	good := testBase("good")
	bad := testBase("broken")
	bad.ContextSMs = nil // fails Normalize
	jobs := []Job{
		{Variant: "good", Tasks: 2, Config: withTasks(good, 2)},
		{Variant: "broken", Tasks: 3, Config: withTasks(bad, 3)},
		{Variant: "good", Tasks: 4, Config: withTasks(good, 4)},
	}
	results := Run(context.Background(), jobs, Options{Jobs: 2})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy siblings failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[0].Result.Summary.TotalFPS <= 0 || results[2].Result.Summary.TotalFPS <= 0 {
		t.Error("completed siblings lost their results")
	}
	if results[1].Err == nil {
		t.Fatal("broken job reported no error")
	}
	var je JobError
	if !errors.As(results[1].Err, &je) {
		t.Fatalf("error %T does not unwrap to JobError", results[1].Err)
	}
	if je.Variant != "broken" || je.Tasks != 3 {
		t.Errorf("attribution = (%q, %d), want (broken, 3)", je.Variant, je.Tasks)
	}

	err := Err(results)
	if err == nil {
		t.Fatal("Err(results) = nil with one failure")
	}
	var es Errors
	if !errors.As(err, &es) || len(es) != 1 {
		t.Fatalf("Err(results) = %v, want one-element Errors", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "broken") || !strings.Contains(msg, "n=3") {
		t.Errorf("error message %q lacks coordinates", msg)
	}
}

// TestSweepSeriesKeepsFinishedPoints: a series whose middle point fails
// keeps the completed points on either side of it.
func TestSweepSeriesKeepsFinishedPoints(t *testing.T) {
	jobs := seriesJobs(testBase("sgprs"), []int{2, 0, 4}) // 0 tasks fails Normalize
	results := Run(context.Background(), jobs, Options{Jobs: 2})
	if Err(results) == nil || results[1].Err == nil {
		t.Fatal("want error for n=0 point")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result.Tasks != jobs[i].Tasks {
			t.Errorf("point %d = %+v, want the completed n=%d result", i, results[i], jobs[i].Tasks)
		}
	}
}

// TestProgress: the callback is serialized, called once per job, with a
// monotonic done count ending at total.
func TestProgress(t *testing.T) {
	jobs := seriesJobs(testBase("sgprs"), []int{1, 2, 3})
	var calls int
	last := 0
	seen := map[int]bool{}
	_ = Run(context.Background(), jobs, Options{Jobs: 3, Progress: func(done, total int, r JobResult) {
		calls++
		if total != 3 {
			t.Errorf("total = %d, want 3", total)
		}
		if done != last+1 {
			t.Errorf("done jumped from %d to %d", last, done)
		}
		last = done
		seen[r.Index] = true
	}})
	if calls != 3 || len(seen) != 3 {
		t.Errorf("calls = %d, distinct indices = %d, want 3/3", calls, len(seen))
	}
}

// TestDeriveSeed: pure, stable, and sensitive to every coordinate.
func TestDeriveSeed(t *testing.T) {
	s := DeriveSeed(1, "sgprs-1.5x", 8)
	if s != DeriveSeed(1, "sgprs-1.5x", 8) {
		t.Error("DeriveSeed is not deterministic")
	}
	for _, other := range []uint64{
		DeriveSeed(2, "sgprs-1.5x", 8),
		DeriveSeed(1, "sgprs-2.0x", 8),
		DeriveSeed(1, "sgprs-1.5x", 9),
	} {
		if other == s {
			t.Error("DeriveSeed collides across adjacent coordinates")
		}
	}
}

// TestRunEmpty: a zero-job fan-out returns cleanly.
func TestRunEmpty(t *testing.T) {
	if got := Run(context.Background(), nil, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) = %v", got)
	}
	if err := Err(nil); err != nil {
		t.Errorf("Err(nil) = %v", err)
	}
}

func withTasks(cfg sim.RunConfig, n int) sim.RunConfig {
	cfg.NumTasks = n
	return cfg
}

// TestCancellationSingleWorker pins the exact cancellation contract with one
// worker (deterministic on the single-core container): the job in flight
// when cancel fires drains and keeps its result, no further job is
// dispatched, and every undispatched job carries a ctx-attributed error.
func TestCancellationSingleWorker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := seriesJobs(testBase("sgprs"), []int{2, 3, 4, 5})
	var streamed int
	results := Run(ctx, jobs, Options{Jobs: 1, Progress: func(done, total int, r JobResult) {
		streamed++
		if done == 1 {
			cancel() // while job 0 is being finalized; jobs 1..3 are undispatched
		}
	}})
	if streamed != len(jobs) {
		t.Errorf("progress streamed %d results, want %d (cancelled jobs included)", streamed, len(jobs))
	}
	if results[0].Err != nil {
		t.Fatalf("in-flight job was not drained: %v", results[0].Err)
	}
	if results[0].Result.Summary.TotalFPS <= 0 {
		t.Error("drained job lost its result")
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled attribution", i, results[i].Err)
		}
		var je JobError
		if !errors.As(results[i].Err, &je) || je.Tasks != jobs[i].Tasks {
			t.Errorf("job %d lost its sweep coordinates: %v", i, results[i].Err)
		}
	}
	err := Err(results)
	if err == nil {
		t.Fatal("Err(results) = nil after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("aggregate error %v does not unwrap to context.Canceled", err)
	}
}

// TestCancellationPreCancelled: a context cancelled before Run dispatches
// anything yields zero executed jobs and one ctx-attributed error per job.
func TestCancellationPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := seriesJobs(testBase("sgprs"), testCounts)
	results := Run(ctx, jobs, Options{Jobs: 2})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d = %+v, want context.Canceled", i, r.Err)
		}
	}
}

// TestCancelledSweepKeepsPoints: a cancelled sweep returns the completed
// points alongside the ctx-attributed Errors value — the partial-results
// contract extends to cancellation.
func TestCancelledSweepKeepsPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Jobs: 1, Progress: func(done, total int, r JobResult) {
		if done == 2 {
			cancel()
		}
	}}
	results := Run(ctx, seriesJobs(testBase("sgprs"), []int{2, 3, 4, 5}), opt)
	for i, r := range results[:2] {
		if r.Err != nil || r.Result.Tasks != []int{2, 3}[i] {
			t.Fatalf("point %d = %+v, want a completed result", i, r)
		}
	}
	if err := Err(results); !errors.Is(err, context.Canceled) {
		t.Errorf("sweep error = %v, want context.Canceled", err)
	}
}
