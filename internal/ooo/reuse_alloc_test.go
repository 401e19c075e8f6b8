//go:build !race

package ooo

import (
	"runtime"
	"runtime/debug"
	"testing"

	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// TestReuseSteadyStateAllocs pins what one simulation allocates once a
// reused core and a released trace are warm: the returned Stats copy and
// nothing that grows with the stream or the config. GC is off and GOMAXPROCS
// is 1 so the trace pool can neither be emptied by a collection nor miss
// on another P, and the numbers repeat exactly from run to run (with GC
// on, BenchmarkSim* B/op swings with pool refills). Excluded under -race:
// the race runtime drops pooled items at random.
func TestReuseSteadyStateAllocs(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
	p, err := workload.ByName("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, 20000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Baseline()
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	// Per run: the Stats copy (384 B on amd64) and room for one more small
	// allocation; a per-record or per-run buffer regression is kilobytes.
	const maxBytes, maxAllocs = 1 << 10, 2
	for _, lite := range []bool{false, true} {
		run := func() {
			if _, err := core.reset(cfg); err != nil {
				t.Fatal(err)
			}
			r := core.Run
			if lite {
				r = core.RunLite
			}
			tr, _, err := r(stream)
			if err != nil {
				t.Fatal(err)
			}
			tr.Release()
		}
		// Warm the mode's pools and a trace of this length; its annotation
		// arena doubles a chunk per run until one chunk holds a whole run.
		for i := 0; i < 3; i++ {
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("lite=%v: %d B and %d allocs per run", lite, bytes, allocs)
		if bytes > maxBytes || allocs > maxAllocs {
			t.Errorf("lite=%v: a warm reused core allocates %d B in %d allocs per run, bound %d B in %d",
				lite, bytes, allocs, maxBytes, maxAllocs)
		}
	}
}
