package dse

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"archexplorer/internal/obs"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// sameEvaluation compares the deterministic fields of two evaluations
// (timings are excluded — they are the only fields allowed to vary).
func sameEvaluation(t *testing.T, label string, a, b *Evaluation) {
	t.Helper()
	if a.Point != b.Point {
		t.Fatalf("%s: points differ: %v vs %v", label, a.Point, b.Point)
	}
	if a.Config != b.Config {
		t.Fatalf("%s: configs differ", label)
	}
	if a.PPA != b.PPA {
		t.Fatalf("%s: PPA differs: %+v vs %+v", label, a.PPA, b.PPA)
	}
	if a.Probe != b.Probe {
		t.Fatalf("%s: probe flags differ", label)
	}
	if a.SimsAt != b.SimsAt {
		t.Fatalf("%s: SimsAt differs: %v vs %v", label, a.SimsAt, b.SimsAt)
	}
	if len(a.PerWorkloadIPC) != len(b.PerWorkloadIPC) {
		t.Fatalf("%s: per-workload IPC lengths differ", label)
	}
	for i := range a.PerWorkloadIPC {
		if a.PerWorkloadIPC[i] != b.PerWorkloadIPC[i] {
			t.Fatalf("%s: workload %d IPC differs: %v vs %v",
				label, i, a.PerWorkloadIPC[i], b.PerWorkloadIPC[i])
		}
	}
	if (a.Report == nil) != (b.Report == nil) {
		t.Fatalf("%s: one report missing", label)
	}
	if a.Report != nil {
		if a.Report.L != b.Report.L || a.Report.Base != b.Report.Base {
			t.Fatalf("%s: report L/Base differ", label)
		}
		for r := range a.Report.Contrib {
			if a.Report.Contrib[r] != b.Report.Contrib[r] {
				t.Fatalf("%s: report contrib %d differs", label, r)
			}
		}
	}
}

// TestParallelismDeterminism is the tentpole's contract: an explorer run at
// Parallelism 4 must leave byte-identical evaluations, budget accounting,
// and history order to the fully sequential Parallelism 1 run. ArchExplorer
// exercises every evaluator path — probes, batches, cache upgrades, and
// full re-evaluations.
func TestParallelismDeterminism(t *testing.T) {
	run := func(parallelism int) *Evaluator {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.Parallelism = parallelism
		if err := NewArchExplorer(7).Run(ev, 40); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	seq := run(1)
	par := run(4)

	if seq.Sims != par.Sims {
		t.Fatalf("Sims differ: sequential %v, parallel %v", seq.Sims, par.Sims)
	}
	if len(seq.History) != len(par.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(seq.History), len(par.History))
	}
	for i := range seq.History {
		sameEvaluation(t, "history", seq.History[i], par.History[i])
	}
}

// TestParallelismOneIsSequential pins Parallelism's documented contract:
// at 1, a multi-point batch runs one job and one workload at a time, so no
// two stage spans are ever in flight together and every span occupies
// worker slot 1.
func TestParallelismOneIsSequential(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.Parallelism = 1
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec
	if _, err := ev.EvaluateBatch(litePoints(ev.Space), true); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var stages []*obs.SpanEvent
	for _, e := range events {
		if s, ok := e.(*obs.SpanEvent); ok && s.SpanKind == obs.SpanStage {
			stages = append(stages, s)
		}
	}
	if want := 3 * len(ev.Workloads) * 4; len(stages) != want {
		t.Fatalf("journaled %d stage spans, want %d", len(stages), want)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].StartNS < stages[j].StartNS })
	for i, s := range stages {
		if s.Worker != 1 {
			t.Fatalf("stage %s/%s ran on worker slot %d at Parallelism 1", s.Workload, s.Name, s.Worker)
		}
		if i > 0 && s.StartNS < stages[i-1].End() {
			t.Fatalf("stage %s/%s started at %d while %s/%s ran until %d",
				s.Workload, s.Name, s.StartNS, stages[i-1].Workload, stages[i-1].Name, stages[i-1].End())
		}
	}
}

// TestBatchMatchesSequentialEvaluate checks EvaluateBatch against a loop of
// single Evaluate calls on a fresh evaluator: same results, same budget,
// same history.
func TestBatchMatchesSequentialEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	space := uarch.StandardSpace()
	pts := make([]uarch.Point, 6)
	for i := range pts {
		pts[i] = space.Random(rng)
	}
	pts[4] = pts[1] // duplicate inside the batch

	seq := NewEvaluator(space, miniSuite(), 1000)
	seq.Parallelism = 1
	for _, pt := range pts {
		if _, err := seq.Evaluate(pt, true); err != nil {
			t.Fatal(err)
		}
	}

	bat := NewEvaluator(space, miniSuite(), 1000)
	bat.Parallelism = 4
	evals, err := bat.EvaluateBatch(pts, true)
	if err != nil {
		t.Fatal(err)
	}

	if seq.Sims != bat.Sims {
		t.Fatalf("Sims differ: %v vs %v", seq.Sims, bat.Sims)
	}
	if len(seq.History) != len(bat.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(seq.History), len(bat.History))
	}
	for i := range seq.History {
		sameEvaluation(t, "history", seq.History[i], bat.History[i])
	}
	if evals[4] != evals[1] {
		t.Fatal("duplicate point did not share its evaluation")
	}
}

// TestUpgradeChargesNothing is the budget double-charging regression: a
// cached evaluation re-requested with DEG analysis re-simulates to rebuild
// the trace, but the budget was already paid once.
func TestUpgradeChargesNothing(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	pt := ev.Space.Nearest(uarch.Baseline())

	if _, err := ev.Evaluate(pt, false); err != nil {
		t.Fatal(err)
	}
	paid := ev.Sims
	if paid != float64(len(ev.Workloads)) {
		t.Fatalf("initial charge %v, want %d", paid, len(ev.Workloads))
	}

	e, err := ev.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Report == nil {
		t.Fatal("upgrade did not attach a report")
	}
	if ev.Sims != paid {
		t.Fatalf("upgrade charged budget: %v after paying %v", ev.Sims, paid)
	}
	if len(ev.History) != 1 {
		t.Fatalf("upgrade duplicated history: %d entries", len(ev.History))
	}
}

// TestBatchDeduplicatesCharges: a batch repeating one design point charges
// a single suite and records a single history entry.
func TestBatchDeduplicatesCharges(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	ev.Parallelism = 4
	pt := ev.Space.Nearest(uarch.Baseline())

	evals, err := ev.EvaluateBatch([]uarch.Point{pt, pt, pt}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sims != float64(len(ev.Workloads)) {
		t.Fatalf("duplicates charged: %v sims", ev.Sims)
	}
	if len(ev.History) != 1 {
		t.Fatalf("duplicates in history: %d", len(ev.History))
	}
	if evals[0] != evals[1] || evals[1] != evals[2] {
		t.Fatal("duplicates resolved to distinct evaluations")
	}
}

// TestDrawBatchPlansSequentialBudget: DrawBatch must stop exactly where the
// sequential `for ev.Sims < budget` loop would, treating cached points as
// free.
func TestDrawBatchPlansSequentialBudget(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	pt := ev.Space.Nearest(uarch.Baseline())
	if _, err := ev.Evaluate(pt, false); err != nil { // pre-cache one point
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	var fresh []uarch.Point
	for len(fresh) < 3 {
		p := ev.Space.Random(rng)
		if p != pt {
			fresh = append(fresh, p)
		}
	}
	// Budget for exactly two more suites beyond the one already spent.
	budget := 3 * len(ev.Workloads)
	seqPts := []uarch.Point{pt, fresh[0], pt, fresh[1], fresh[2]}
	got := ev.DrawBatch(float64(budget), false, drawFrom(seqPts))

	// Sequential replay: pt free (cached), fresh[0] +N, pt free, fresh[1]
	// +N -> budget reached, fresh[2] never drawn.
	want := []uarch.Point{pt, fresh[0], pt, fresh[1]}
	if len(got) != len(want) {
		t.Fatalf("planned %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan diverges at %d", i)
		}
	}
	if _, err := ev.EvaluateBatch(got, false); err != nil {
		t.Fatal(err)
	}
	if ev.Sims != float64(budget) {
		t.Fatalf("executed plan spent %v sims, want %d", ev.Sims, budget)
	}
}

// TestWarmWindowIPCGuards is the probe warm-up regression: degenerate
// traces must fall back to whole-trace IPC instead of panicking or
// dividing by a zero span.
func TestWarmWindowIPCGuards(t *testing.T) {
	rec := func(commit int64) pipetrace.Record {
		var r pipetrace.Record
		r.Stamp[pipetrace.SC] = commit
		return r
	}

	cases := []struct {
		name    string
		records []pipetrace.Record
		ok      bool
	}{
		{"empty", nil, false},
		{"single", []pipetrace.Record{rec(5)}, false},
		{"pair", []pipetrace.Record{rec(5), rec(6)}, false},
		{"zero-span", []pipetrace.Record{rec(5), rec(5), rec(5), rec(5)}, false},
		{"healthy", []pipetrace.Record{rec(1), rec(2), rec(3), rec(4), rec(5), rec(6)}, true},
	}
	for _, tc := range cases {
		ipc, ok := warmWindowIPC(&pipetrace.Trace{Records: tc.records})
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if ok && ipc <= 0 {
			t.Errorf("%s: non-positive warm IPC %v", tc.name, ipc)
		}
	}
}

// TestStageTimesRecorded: every evaluation carries per-stage wall-clock so
// campaigns can report where the budget's real time went.
func TestStageTimesRecorded(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	if _, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true); err != nil {
		t.Fatal(err)
	}
	e := ev.History[0]
	if e.Times.Sim <= 0 || e.Times.DEG <= 0 {
		t.Fatalf("missing stage times: %+v", e.Times)
	}
	if e.Elapsed <= 0 {
		t.Fatal("missing elapsed time")
	}
	tot := ev.StageTotals()
	if tot != e.Times {
		t.Fatalf("StageTotals %+v != evaluation times %+v", tot, e.Times)
	}
}
