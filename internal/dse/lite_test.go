package dse

import (
	"bytes"
	"testing"

	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// litePoints picks a handful of diverse design points to compare lite and
// full evaluations over.
func litePoints(space *uarch.Space) []uarch.Point {
	pts := []uarch.Point{space.Nearest(uarch.Baseline())}
	cfg := uarch.Baseline()
	cfg.ROBEntries = 64
	cfg.IQEntries = 16
	pts = append(pts, space.Nearest(cfg))
	cfg = uarch.Baseline()
	cfg.Width = 2
	cfg.IntALU = 2
	pts = append(pts, space.Nearest(cfg))
	return pts
}

// TestLiteEvaluationMatchesFull is the evaluator half of the probe-lite
// contract: an evaluation without DEG analysis (which runs the simulator in
// lite mode, skipping all annotation recording) must report the exact same
// IPC, PPA, and per-workload results as the annotated run — the annotations
// may only feed the DEG, never the timing.
func TestLiteEvaluationMatchesFull(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		space := uarch.StandardSpace()
		pts := litePoints(space)

		liteEv := NewEvaluator(space, miniSuite(), 1500)
		liteEv.Parallelism = parallelism
		liteOut, err := liteEv.EvaluateBatch(pts, false)
		if err != nil {
			t.Fatal(err)
		}

		fullEv := NewEvaluator(space, miniSuite(), 1500)
		fullEv.Parallelism = parallelism
		fullOut, err := fullEv.EvaluateBatch(pts, true)
		if err != nil {
			t.Fatal(err)
		}

		for i := range pts {
			l, f := liteOut[i], fullOut[i]
			if l.PPA != f.PPA {
				t.Fatalf("parallelism %d, point %d: PPA diverges lite %+v full %+v",
					parallelism, i, l.PPA, f.PPA)
			}
			for k := range l.PerWorkloadIPC {
				if l.PerWorkloadIPC[k] != f.PerWorkloadIPC[k] {
					t.Fatalf("parallelism %d, point %d, workload %d: IPC diverges lite %v full %v",
						parallelism, i, k, l.PerWorkloadIPC[k], f.PerWorkloadIPC[k])
				}
			}
			if l.SimInsts != f.SimInsts {
				t.Fatalf("parallelism %d, point %d: SimInsts diverges lite %d full %d",
					parallelism, i, l.SimInsts, f.SimInsts)
			}
			if l.Report != nil {
				t.Fatalf("parallelism %d, point %d: lite evaluation carries a DEG report", parallelism, i)
			}
			if f.Report == nil {
				t.Fatalf("parallelism %d, point %d: full evaluation lost its DEG report", parallelism, i)
			}
		}
	}
}

// TestLiteJournalDeterministic runs the same lite batch sequentially and
// fanned out, with journals attached, and requires the canonical journals
// to be byte-identical — probe-lite and trace pooling must not leak
// scheduling order into the telemetry stream.
func TestLiteJournalDeterministic(t *testing.T) {
	run := func(parallelism int) ([]byte, *Evaluator) {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
		ev.Parallelism = parallelism
		rec := obs.New()
		var buf bytes.Buffer
		rec.SetJournalWriter(&buf)
		ev.Obs = rec
		if _, err := ev.EvaluateBatch(litePoints(ev.Space), false); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), ev
	}

	seqRaw, seqEv := run(1)
	parRaw, parEv := run(4)
	sameCanonicalJournal(t, seqRaw, parRaw)
	for i := range seqEv.History {
		sameEvaluation(t, "lite history", seqEv.History[i], parEv.History[i])
		if seqEv.History[i].SimInsts != parEv.History[i].SimInsts {
			t.Fatalf("history %d: SimInsts differ across parallelism", i)
		}
	}
}
