package ooo

import (
	"sync"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// TestReuseKeepsStats pins that the Stats a run returns belong to the
// caller: a later run on the same core, reset for another config or not,
// leaves them unchanged. mcpat reads them after the simulation stage has
// released its core.
func TestReuseKeepsStats(t *testing.T) {
	stream := batchStreamFor(t, "458.sjeng")
	sink := func(c *pipetrace.Chunk) error { c.Release(); return nil }
	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	tr, first, err := core.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	want := *first
	if tr, _, err = core.Run(stream); err != nil {
		t.Fatal(err)
	}
	tr.Release()
	if *first != want {
		t.Fatal("a second run on the same core rewrote the first run's Stats")
	}
	streamed, err := core.RunStream(stream, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	wantStreamed := *streamed
	for _, cfg := range []uarch.Config{tightConfig(), uarch.Baseline()} {
		if _, err := core.reset(cfg); err != nil {
			t.Fatal(err)
		}
		if tr, _, err = core.RunLite(stream); err != nil {
			t.Fatal(err)
		}
		tr.Release()
	}
	if *first != want || *streamed != wantStreamed {
		t.Fatal("runs on a recycled core rewrote an earlier run's Stats")
	}
}

// TestReuseConcurrent runs acquire/run/release on several goroutines over
// mixed configs and modes: every run must match a fresh core's
// fingerprint, whatever core the pool handed out. `make race` runs it at
// several GOMAXPROCS values.
func TestReuseConcurrent(t *testing.T) {
	stream := batchStreamFor(t, "429.mcf")[:2000]
	cfgs := batchTestConfigs()
	want := make([][2]uint64, len(cfgs))
	for i, cfg := range cfgs {
		for m, lite := range []bool{false, true} {
			tr, st := runConfig(t, cfg, stream, lite)
			want[i][m] = Fingerprint(tr, st)
			tr.Release()
		}
	}
	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i, m := (g+r)%len(cfgs), (g+r/2)%2
				core, err := Acquire(cfgs[i])
				if err != nil {
					errs <- err
					return
				}
				run := core.Run
				if m == 1 {
					run = core.RunLite
				}
				tr, st, err := run(stream)
				core.Release()
				if err != nil {
					errs <- err
					return
				}
				if got := Fingerprint(tr, st); got != want[i][m] {
					t.Errorf("goroutine %d round %d: config %d lite=%v fingerprint %#x, fresh core %#x",
						g, r, i, m == 1, got, want[i][m])
				}
				tr.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
