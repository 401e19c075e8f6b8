package ooo

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"archexplorer/internal/bpred"
	"archexplorer/internal/isa"
	"archexplorer/internal/par"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// The tests in this file cover a batch of sibling configs simulated over
// one shared instruction stream, the way dse.Evaluator runs an evaluation
// batch: every config gets its own Core, the cached stream is shared
// read-only, and the runs may overlap on several goroutines while their
// traces and chunks come from the process-wide pools.

// batchTestConfigs mixes shared and distinct predictor front ends:
// baseline and tight share the predictor parameters, the other two
// differ, and the widths span 2 to 6.
func batchTestConfigs() []uarch.Config {
	wide := uarch.Baseline()
	wide.Width = 6
	wide.ROBEntries = 224
	wide.LocalPredictor = 2048
	wide.BTBEntries = 4096
	narrow := uarch.Baseline()
	narrow.Width = 2
	narrow.GlobalPredictor = 2048
	narrow.RASEntries = 16
	return []uarch.Config{uarch.Baseline(), tightConfig(), wide, narrow}
}

func batchStreamFor(t *testing.T, name string) []isa.Inst {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, parityTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// runConfig simulates one config over stream on a fresh core.
func runConfig(t *testing.T, cfg uarch.Config, stream []isa.Inst, lite bool) (*pipetrace.Trace, *Stats) {
	t.Helper()
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := core.Run
	if lite {
		run = core.RunLite
	}
	tr, st, err := run(stream)
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

// batchFingerprints runs every config over stream on at most workers
// goroutines and returns each run's full fingerprint.
func batchFingerprints(stream []isa.Inst, cfgs []uarch.Config, lite bool, workers int) ([]uint64, error) {
	fps := make([]uint64, len(cfgs))
	err := par.ForEach(len(cfgs), workers, func(i int) error {
		core, err := New(cfgs[i])
		if err != nil {
			return err
		}
		run := core.Run
		if lite {
			run = core.RunLite
		}
		tr, st, err := run(stream)
		if err != nil {
			return err
		}
		fps[i] = Fingerprint(tr, st)
		tr.Release()
		return nil
	})
	return fps, err
}

// TestBatchParityWithRun: every config of a batch sharing one stream —
// full fingerprint, not just IPC — equals a dedicated run of that config
// over a private copy of the stream, at every worker count.
func TestBatchParityWithRun(t *testing.T) {
	cfgs := batchTestConfigs()
	for _, name := range parityWorkloads {
		stream := batchStreamFor(t, name)
		private := append([]isa.Inst(nil), stream...)
		for _, lite := range []bool{false, true} {
			want := make([]uint64, len(cfgs))
			for i, cfg := range cfgs {
				tr, st := runConfig(t, cfg, private, lite)
				want[i] = Fingerprint(tr, st)
				tr.Release()
			}
			for _, workers := range []int{1, 3} {
				got, err := batchFingerprints(stream, cfgs, lite, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range cfgs {
					if got[i] != want[i] {
						t.Errorf("%s lite=%v workers=%d cfg %d: batch fingerprint %#x != dedicated run %#x",
							name, lite, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchLiteMatchesRunLiteExactly: a lite run elides exactly what
// RunLite promises even when its records reuse pool storage that a full
// sibling run just filled with annotations. Its full fingerprint (elided
// annotations included) stays that of a lite run on fresh storage, and
// its timing fingerprint equals the full run's.
func TestBatchLiteMatchesRunLiteExactly(t *testing.T) {
	stream := batchStreamFor(t, "458.sjeng")
	cfg := tightConfig()
	tr, st := runConfig(t, cfg, stream, true)
	want := Fingerprint(tr, st)
	tr.Release()

	for round := 0; round < 3; round++ {
		full, fullSt := runConfig(t, cfg, stream, false)
		wantTiming := TimingFingerprint(full, fullSt)
		full.Release()

		lite, liteSt := runConfig(t, cfg, stream, true)
		if got := Fingerprint(lite, liteSt); got != want {
			t.Fatalf("round %d: lite fingerprint %#x after a full run != fresh RunLite %#x", round, got, want)
		}
		if got := TimingFingerprint(lite, liteSt); got != wantTiming {
			t.Fatalf("round %d: lite timing fingerprint %#x != full run %#x", round, got, wantTiming)
		}
		lite.Release()
	}
}

// TestBatchInvalidConfigIsolated: an invalid config fails at construction,
// the failure is reported for its own index, and its siblings still
// simulate the whole stream.
func TestBatchInvalidConfigIsolated(t *testing.T) {
	stream := batchStreamFor(t, "429.mcf")
	bad := uarch.Baseline()
	bad.IntRF = 2 // below the architectural minimum; Validate rejects it
	cfgs := []uarch.Config{uarch.Baseline(), bad, tightConfig()}
	committed := make([]uint64, len(cfgs))
	failed := make([]error, len(cfgs))
	err := par.ForEach(len(cfgs), 2, func(i int) error {
		core, err := New(cfgs[i])
		if err != nil {
			failed[i] = err
			return err
		}
		tr, st, err := core.RunLite(stream)
		if err != nil {
			return err
		}
		committed[i] = st.Committed
		tr.Release()
		return nil
	})
	if err == nil || err != failed[1] {
		t.Fatalf("batch error %v, want the invalid config's %v", err, failed[1])
	}
	for _, i := range []int{0, 2} {
		if failed[i] != nil {
			t.Fatalf("sibling %d failed: %v", i, failed[i])
		}
		if committed[i] != uint64(len(stream)) {
			t.Fatalf("sibling %d committed %d != %d", i, committed[i], len(stream))
		}
	}
}

// TestBatchCheckFailureIsolated: one streamed run whose sink errors or
// panics mid-run stops alone; the siblings streaming next to it through
// the same chunk pool stay bit-exact with dedicated runs.
func TestBatchCheckFailureIsolated(t *testing.T) {
	stream := batchStreamFor(t, "619.lbm_s")
	cfgs := batchTestConfigs()
	want := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		tr, st := runConfig(t, cfg, stream, false)
		want[i] = Fingerprint(tr, st)
		tr.Release()
	}
	checkErr := errors.New("lane rejected")
	const poisoned = 2
	for _, mode := range []string{"error", "panic"} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				got := make([]uint64, len(cfgs))
				errs := make([]error, len(cfgs))
				_ = par.ForEach(len(cfgs), workers, func(i int) (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("lane panicked: %v", p)
						}
						errs[i] = err
					}()
					core, err := New(cfgs[i])
					if err != nil {
						return err
					}
					var chunks []*pipetrace.Chunk
					defer func() {
						for _, c := range chunks {
							c.Release()
						}
					}()
					st, err := core.RunStream(stream, 512, func(c *pipetrace.Chunk) error {
						if i == poisoned && len(chunks) == 2 {
							c.Release()
							if mode == "panic" {
								panic("injected lane panic")
							}
							return checkErr
						}
						chunks = append(chunks, c)
						return nil
					})
					if err != nil {
						return err
					}
					got[i] = ChunkedFingerprint(st.Cycles, st, func(hash func(*pipetrace.Record)) {
						for _, c := range chunks {
							for k := range c.Records {
								hash(&c.Records[k])
							}
						}
					})
					return nil
				})
				switch {
				case errs[poisoned] == nil:
					t.Fatalf("lane %d was not stopped", poisoned)
				case mode == "error" && !errors.Is(errs[poisoned], checkErr):
					t.Fatalf("lane %d error %v is not the sink's error", poisoned, errs[poisoned])
				case mode == "panic" && errs[poisoned].Error() != "lane panicked: injected lane panic":
					t.Fatalf("lane %d error %v does not carry the sink's panic", poisoned, errs[poisoned])
				}
				for i := range cfgs {
					if i == poisoned {
						continue
					}
					if errs[i] != nil {
						t.Fatalf("sibling lane %d failed: %v", i, errs[i])
					}
					if got[i] != want[i] {
						t.Errorf("lane %d diverged next to a stopped sibling: %#x != %#x", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestBatchGate: the simulator never takes a compute slot of its own, so a
// batch whose every run holds one of par.Slot's slots — the gate the
// evaluator runs each simulation behind — completes even with the pool
// saturated, and gating changes nothing about the results.
func TestBatchGate(t *testing.T) {
	stream := batchStreamFor(t, "453.povray")
	cfgs := batchTestConfigs()
	want, err := batchFingerprints(stream, cfgs, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	got := make([]uint64, len(cfgs))
	done := make(chan error, 1)
	go func() {
		done <- par.ForEach(len(cfgs), par.DefaultLimit(), func(i int) (err error) {
			par.Slot(func() {
				calls.Add(1)
				var fps []uint64
				fps, err = batchFingerprints(stream, cfgs[i:i+1], true, 1)
				if err == nil {
					got[i] = fps[0]
				}
			})
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("gated batch did not finish: a run waits for a compute slot it cannot get")
	}
	if n := calls.Load(); n != int64(len(cfgs)) {
		t.Errorf("gate ran %d runs, want %d", n, len(cfgs))
	}
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("cfg %d: gated fingerprint %#x != ungated %#x", i, got[i], want[i])
		}
	}
}

// TestBatchInputValidation pins the whole-call error cases of every
// engine, and that a rejected call leaves the core untouched: the same
// core then simulates a real stream exactly like a fresh one.
func TestBatchInputValidation(t *testing.T) {
	stream := batchStreamFor(t, "429.mcf")
	tr, st := runConfig(t, uarch.Baseline(), stream, false)
	want := Fingerprint(tr, st)
	tr.Release()

	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	sink := func(c *pipetrace.Chunk) error { c.Release(); return nil }
	for _, empty := range [][]isa.Inst{nil, {}} {
		if tr, _, err := core.Run(empty); err == nil || tr != nil {
			t.Errorf("Run accepted an empty stream (len %d)", len(empty))
		}
		if tr, _, err := core.RunLite(empty); err == nil || tr != nil {
			t.Errorf("RunLite accepted an empty stream (len %d)", len(empty))
		}
		if _, err := core.RunStream(empty, 0, sink); err == nil {
			t.Errorf("RunStream accepted an empty stream (len %d)", len(empty))
		}
	}
	if _, err := core.RunStream(stream, 0, nil); err == nil {
		t.Error("RunStream accepted a nil sink")
	}
	tr, st, err = core.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	if got := Fingerprint(tr, st); got != want {
		t.Errorf("core after rejected calls: fingerprint %#x != fresh core %#x", got, want)
	}
}

// TestBatchNoTraceAliasing extends the Retain/Release contract tests to
// overlapping runs: the traces a batch returns must be pairwise distinct
// objects with pairwise distinct record storage, and recycling them
// between rounds must not let one run's storage surface in another run's
// result. (The double-Release pin that guards the underlying bug class
// lives with the pool: pipetrace's TestReleaseBeyondZeroPanics.)
func TestBatchNoTraceAliasing(t *testing.T) {
	stream := batchStreamFor(t, "458.sjeng")
	cfgs := batchTestConfigs()
	var want []uint64
	for round := 0; round < 3; round++ {
		trs := make([]*pipetrace.Trace, len(cfgs))
		sts := make([]*Stats, len(cfgs))
		err := par.ForEach(len(cfgs), 2, func(i int) error {
			core, err := New(cfgs[i])
			if err != nil {
				return err
			}
			trs[i], sts[i], err = core.Run(stream)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range trs {
			for j := i + 1; j < len(trs); j++ {
				b := trs[j]
				if a == b {
					t.Fatalf("round %d: runs %d and %d share a *Trace", round, i, j)
				}
				if &a.Records[0] == &b.Records[0] {
					t.Fatalf("round %d: runs %d and %d share record storage", round, i, j)
				}
			}
		}
		// Fingerprints must be stable across rounds even though every round
		// after the first runs on pool-recycled storage.
		for i, tr := range trs {
			got := Fingerprint(tr, sts[i])
			if round == 0 {
				want = append(want, got)
			} else if got != want[i] {
				t.Fatalf("round %d run %d: fingerprint %#x != first round %#x (recycled storage leaked state)",
					round, i, got, want[i])
			}
		}
		for _, tr := range trs {
			tr.Release()
		}
	}
}

// TestBranchReplayMatchesLivePredictor: branch outcomes depend only on the
// stream and the predictor parameters, never on the timing model. Replaying
// the stream's branches in program order through a fresh predictor
// reproduces every run's per-branch misprediction bits and counters, so
// configs sharing a predictor agree branch for branch at any width.
func TestBranchReplayMatchesLivePredictor(t *testing.T) {
	stream := batchStreamFor(t, "429.mcf")
	for i, cfg := range batchTestConfigs() {
		p, err := bpred.New(predConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		var replay []bool
		for k := range stream {
			if stream[k].Class == isa.OpBranch {
				replay = append(replay, resolveBranch(p, &stream[k]))
			}
		}
		tr, st := runConfig(t, cfg, stream, true)
		if p.Lookups != st.BranchLookups || p.Mispredicts != st.Mispredicts {
			t.Errorf("cfg %d: replay lookups %d / mispredicts %d, live %d / %d",
				i, p.Lookups, p.Mispredicts, st.BranchLookups, st.Mispredicts)
		}
		bi := 0
		for k := range tr.Records {
			r := &tr.Records[k]
			if r.Class != isa.OpBranch {
				continue
			}
			if replay[bi] != r.Mispredicted {
				t.Fatalf("cfg %d branch %d (seq %d): replay says %v, live run says %v",
					i, bi, r.Seq, replay[bi], r.Mispredicted)
			}
			bi++
		}
		if bi != len(replay) {
			t.Fatalf("cfg %d: live run has %d branches, replay %d", i, bi, len(replay))
		}
		tr.Release()
	}
}
