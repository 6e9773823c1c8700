package exp

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/workload"
)

// goldenPath is the golden-digest corpus: one line per cell, "<cell>
// <digest>", recorded from the sequential reference drivers and never
// rewritten by a test. A deliberate change to simulation output re-records
// it by hand and says why in the commit (DESIGN.md §9).
const goldenPath = "testdata/golden.txt"

// goldenSpecs lists the corpus. Every cell is one compiled job, named
// "<spec>/<variant>/n=<tasks>":
//
//   - both paper scenarios × the four variants × n ∈ {2, 4, 12, 24}, 2 s;
//   - the jittered, staggered, and naive-jitter configurations, once with
//     the nil arrival and once with an explicit Periodic{} process (the
//     two digests must coincide);
//   - the open-loop Poisson, bursty, and trace-replay configurations;
//   - every fault family at once, under each transient-recovery policy;
//   - a 3-device fleet losing a device mid-run, under each failover policy;
//   - a fast-forward-eligible 60 s run that skips cycles;
//   - a SeedDerived series.
func goldenSpecs(t *testing.T) []*Spec {
	t.Helper()
	var specs []*Spec
	for _, scenario := range []int{1, 2} {
		s, err := Scenario(scenario, []int{2, 4, 12, 24}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}

	jittered := []sim.RunConfig{
		{Kind: sim.KindSGPRS, Name: "jittered", ContextSMs: []int{34, 34}, NumTasks: 12,
			ReleaseJitterMS: 3, WorkVariation: 0.2, HorizonSec: 2, Seed: 7},
		{Kind: sim.KindSGPRS, Name: "staggered", ContextSMs: []int{23, 23, 23}, NumTasks: 26,
			Stagger: true, HorizonSec: 2, Seed: 3},
		{Kind: sim.KindNaive, Name: "naive-jit", ContextSMs: []int{34, 34}, NumTasks: 20,
			ReleaseJitterMS: 2, HorizonSec: 2, Seed: 5},
	}
	periodic := make([]sim.RunConfig, len(jittered))
	for i, cfg := range jittered {
		cfg.Arrival = workload.Periodic{}
		periodic[i] = cfg
	}
	specs = append(specs,
		&Spec{Name: "jittered", Variants: jittered},
		&Spec{Name: "periodic", Variants: periodic})

	trace := workload.SyntheticTrace("equiv", 5, 90, 2, 6)
	specs = append(specs, &Spec{Name: "open-loop", Variants: []sim.RunConfig{
		{Kind: sim.KindSGPRS, Name: "poisson-overload", ContextSMs: []int{23, 23, 23}, NumTasks: 12,
			Arrival: workload.Poisson{Rate: 50}, SLOMS: 40, HorizonSec: 2, Seed: 7},
		{Kind: sim.KindNaive, Name: "naive-poisson", ContextSMs: []int{34, 34}, NumTasks: 8,
			Arrival: workload.Poisson{}, SLOMS: 33.4, HorizonSec: 2, Seed: 2},
		{Kind: sim.KindSGPRS, Name: "bursty", ContextSMs: []int{34, 34}, NumTasks: 10,
			Arrival: workload.Bursty{OnSec: 0.3, OffSec: 0.3}, WorkVariation: 0.15, HorizonSec: 2, Seed: 4},
		{Kind: sim.KindSGPRS, Name: "trace", ContextSMs: []int{34, 34}, NumTasks: 6,
			Arrival: workload.Trace{Data: trace}, SLOMS: 50, HorizonSec: 2, Seed: 9},
	}})

	faulted := &Spec{Name: "faults"}
	for _, policy := range []string{"retry", "skip-job", "kill-chain"} {
		faulted.Variants = append(faulted.Variants, sim.RunConfig{
			Kind: sim.KindSGPRS, Name: policy, ContextSMs: []int{23, 23, 23},
			NumTasks: 16, HorizonSec: 2, Seed: 7,
			Faults: &fault.Config{
				Overrun:     &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 2},
				Transient:   &fault.Transient{Prob: 0.05, Policy: policy, MaxRetries: 2},
				Degradation: []fault.Window{{StartSec: 0.8, EndSec: 1.4, SMs: 20}},
			},
		})
	}
	specs = append(specs, faulted)

	fleet := &Spec{Name: "fleet"}
	for _, fo := range []rt.FailoverPolicy{rt.FailoverMigrate, rt.FailoverRetry, rt.FailoverShed} {
		fleet.Variants = append(fleet.Variants, sim.RunConfig{
			Kind: sim.KindSGPRS, Name: fo.String(), ContextSMs: []int{23, 23, 23},
			NumTasks: 18, HorizonSec: 3, Seed: 7,
			Devices: 3, Failover: fo, AdmitCeiling: 0.7,
			Faults: &fault.Config{
				Overrun:      &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 2},
				DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 1.2, RestartSec: 2.2}},
			},
		})
	}
	specs = append(specs, fleet)

	steady := gpu.DefaultConfig()
	steady.ContentionJitter = 0
	steady.Seed = 2
	specs = append(specs, &Spec{Name: "steady", Variants: []sim.RunConfig{
		{Kind: sim.KindSGPRS, Name: "ff-eligible", ContextSMs: sim.ContextPool(3, 1.5, 68),
			NumTasks: 26, HorizonSec: 60, Seed: 1, GPU: steady},
	}})

	derived := Series(sim.RunConfig{
		Kind: sim.KindSGPRS, Name: "sgprs", ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks: 1, HorizonSec: 2, Seed: 7, WorkVariation: 0.3,
	}, []int{2, 4})
	derived.Name = "derived"
	derived.SeedPolicy = SeedDerived
	specs = append(specs, derived)
	return specs
}

// goldenCell names a compiled job within the corpus.
func goldenCell(spec string, j runner.Job) string {
	return fmt.Sprintf("%s/%s/n=%d", spec, j.Variant, j.Tasks)
}

// goldenDigest is the corpus encoding: the first 16 hex digits of the
// SHA-256 of the result's %+v rendering, which prints every float in its
// shortest round-trip form — so every bit of every metric participates.
func goldenDigest(r sim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])[:16]
}

// readGolden loads the corpus into a cell → digest map, keeping the file's
// cell order.
func readGolden(t *testing.T) (map[string]string, []string) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		if _, dup := want[fields[0]]; dup {
			t.Fatalf("%s: duplicate cell %q", goldenPath, fields[0])
		}
		want[fields[0]] = fields[1]
		order = append(order, fields[0])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want, order
}

// TestGoldenCorpus is the output oracle of the one run pipeline: every
// corpus cell, executed through Spec → runner → sim.Session at one worker,
// at four workers, and without the offline cache, must reproduce its
// recorded digest. A mismatch prints the full corpus line the run produced.
func TestGoldenCorpus(t *testing.T) {
	want, order := readGolden(t)
	seen := map[string]bool{}
	for _, spec := range goldenSpecs(t) {
		for _, opt := range []struct {
			name string
			opt  runner.Options
		}{
			{"jobs=1", runner.Options{Jobs: 1}},
			{"jobs=4", runner.Options{Jobs: 4}},
			{"uncached", runner.Options{Jobs: 1, NoOfflineCache: true}},
		} {
			rs, err := Run(context.Background(), spec, opt.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, opt.name, err)
			}
			for _, r := range rs.Results {
				cell := goldenCell(spec.Name, r.Job)
				seen[cell] = true
				d, ok := want[cell]
				if !ok {
					t.Errorf("%s: cell not in %s; got line:\n%s %s", opt.name, goldenPath, cell, goldenDigest(r.Result))
					continue
				}
				if got := goldenDigest(r.Result); got != d {
					t.Errorf("%s: %s digest %s, corpus has %s; got line:\n%s %s",
						opt.name, cell, got, d, cell, got)
				}
				if spec.Name == "steady" && r.Result.FastForward.CyclesSkipped == 0 {
					t.Errorf("%s: %s skipped no cycles; the cell no longer covers fast-forward", opt.name, cell)
				}
			}
		}
	}
	for _, cell := range order {
		if !seen[cell] {
			t.Errorf("corpus cell %s is produced by no spec", cell)
		}
	}
}
