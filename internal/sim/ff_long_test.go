package sim

import (
	"reflect"
	"runtime"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
)

// TestFastForwardLongHorizon extends the fast-forward equivalence suite past
// the few seconds the scenario grid covers: over 120 s the device integrals
// and the response-time sum cross several binades inside the skipped
// stretch, which is where the closed-form replay (stats.FoldRepeat) and the
// collector's run-length block do all their work. Each cell must equal its
// DisableFastForward reference byte for byte, and the collector state —
// block expanded — must match at every boundary the fast-forward run visits.
func TestFastForwardLongHorizon(t *testing.T) {
	cells := []struct {
		name string
		kind Kind
		os   float64
		n    int
	}{
		{"sgprs-1.5x/n=26", KindSGPRS, 1.5, 26},
		// The naive baseline never recurs at n = 26; n = 12 does.
		{"naive/n=12", KindNaive, 1.0, 12},
	}
	cache := memo.New()
	for _, c := range cells {
		cfg := RunConfig{
			Kind: c.kind, Name: c.name, ContextSMs: ContextPool(2, c.os, speedup.DeviceSMs),
			NumTasks: c.n, HorizonSec: 120, Seed: 1, GPU: eligibleGPU(1),
		}
		sess := NewSession(cache)
		snaps := map[des.Time]metrics.CollectorSnapshot{}
		sess.ffTrace = func(now des.Time) { snaps[now] = sess.collector.DebugSnapshot() }
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.FastForward.CyclesSkipped < 1000 {
			t.Fatalf("%s: only %d cycles skipped; the test exercises no long extrapolation",
				c.name, got.FastForward.CyclesSkipped)
		}

		// The reference compares as it goes: it visits every boundary, and
		// keeping all of its snapshots would cost gigabytes.
		ref := cfg
		ref.DisableFastForward = true
		rsess := NewSession(cache)
		compared := 0
		rsess.ffTrace = func(now des.Time) {
			want, ok := snaps[now]
			if !ok {
				return
			}
			compared++
			if !snapshotsEqual(rsess.collector.DebugSnapshot(), want) {
				t.Errorf("%s: collector state diverges at boundary %v", c.name, now)
			}
		}
		want, err := rsess.Run(ref)
		if err != nil {
			t.Fatalf("%s reference: %v", c.name, err)
		}
		if compared != len(snaps) {
			t.Errorf("%s: compared %d of the %d boundaries the fast-forward run visited",
				c.name, compared, len(snaps))
		}
		got.FastForward = metrics.FFStats{}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: fast-forward differs from full simulation\nwant %+v\ngot  %+v",
				c.name, want, got)
		}
	}
}

// TestFastForwardFreshSessionAllocFlat pins what a whole fast-forwarded run
// allocates, slot storage included: the benches measure a session warmed by
// an untimed run, so storage that grows with the skipped-cycle count would
// not show there. Each horizon runs on a fresh Session over a warmed offline
// cache, and the 600 s run must allocate within 10% of the 60 s one — before
// the collector's run-length block, one 3600 s run allocated ~550 MB.
func TestFastForwardFreshSessionAllocFlat(t *testing.T) {
	cfg := RunConfig{
		Kind: KindSGPRS, Name: "sgprs-1.5x", ContextSMs: ContextPool(3, 1.5, speedup.DeviceSMs),
		NumTasks: 26, Seed: 1, GPU: eligibleGPU(1),
	}
	cache := memo.New()
	if _, err := NewSession(cache).Run(cfg); err != nil {
		t.Fatal(err) // warm the offline cache outside the measurement
	}
	alloc := func(horizonSec float64) (bytes, skipped uint64) {
		c := cfg
		c.HorizonSec = horizonSec
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := NewSession(cache).Run(c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%vs: %v", horizonSec, err)
		}
		return after.TotalAlloc - before.TotalAlloc, res.FastForward.CyclesSkipped
	}
	short, shortSkipped := alloc(60)
	long, longSkipped := alloc(600)
	if longSkipped < 10*shortSkipped {
		t.Fatalf("cycles skipped: %d at 60 s, %d at 600 s; the test needs the long run to extrapolate", shortSkipped, longSkipped)
	}
	if float64(long) > 1.1*float64(short) {
		t.Errorf("a fresh 600 s run allocated %d B, a 60 s run %d B: allocation grows with the skipped-cycle count", long, short)
	}
	t.Logf("fresh-session allocation: %d B at 60 s (%d cycles skipped), %d B at 600 s (%d skipped)", short, shortSkipped, long, longSkipped)
}
