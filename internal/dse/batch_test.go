package dse

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// The tests in this file cover the simulation stage of a batch: the
// (design, workload) simulations EvaluateBatch and ProbeBatch run for the
// batch's unique designs, one core per simulation, under the evaluator's
// parallelism, telemetry and fault policy.

// batchPoints draws n random valid points with one duplicate, the standard
// shape of an explorer-issued batch.
func batchPoints(seed int64, n int) []uarch.Point {
	rng := rand.New(rand.NewSource(seed))
	space := uarch.StandardSpace()
	pts := make([]uarch.Point, n)
	for i := range pts {
		pts[i] = space.Random(rng)
	}
	if n > 2 {
		pts[n-1] = pts[1] // duplicate inside the batch
	}
	return pts
}

// sameHistories asserts two evaluators produced byte-identical campaigns.
func sameHistories(t *testing.T, label string, a, b *Evaluator) {
	t.Helper()
	if a.Sims != b.Sims {
		t.Fatalf("%s: Sims differ: %v vs %v", label, a.Sims, b.Sims)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		sameEvaluation(t, label, a.History[i], b.History[i])
	}
}

// TestSimBatchParityEvaluateBatch: a lite batch followed by its DEG
// upgrade batch leaves the same PPA, per-workload IPC, DEG reports, budget
// and history as evaluating the points one at a time.
func TestSimBatchParityEvaluateBatch(t *testing.T) {
	pts := batchPoints(21, 6)
	seq := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	seq.Parallelism = 1
	batched := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	batched.Parallelism = 4
	for _, withDEG := range []bool{false, true} {
		for _, pt := range pts {
			if _, err := seq.Evaluate(pt, withDEG); err != nil {
				t.Fatal(err)
			}
		}
		evals, err := batched.EvaluateBatch(pts, withDEG)
		if err != nil {
			t.Fatal(err)
		}
		sameHistories(t, "evaluate", seq, batched)
		if evals[len(evals)-1] != evals[1] {
			t.Fatal("duplicate point did not share its evaluation")
		}
	}
}

// TestSimBatchParityProbeBatch: probe batches (short traces, warm-window
// IPC read off the materialized trace) match probing the points one at a
// time.
func TestSimBatchParityProbeBatch(t *testing.T) {
	pts := batchPoints(22, 5)

	seq := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1600)
	seq.Parallelism = 1
	for _, pt := range pts {
		if _, err := seq.Probe(pt); err != nil {
			t.Fatal(err)
		}
	}
	batched := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1600)
	batched.Parallelism = 4
	if _, err := batched.ProbeBatch(pts); err != nil {
		t.Fatal(err)
	}
	sameHistories(t, "probe", seq, batched)
}

// TestSimBatchParityParallel: a batch with DEG analysis at Parallelism 4
// matches the sequential batch exactly.
func TestSimBatchParityParallel(t *testing.T) {
	pts := batchPoints(23, 6)
	run := func(parallelism int) *Evaluator {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.Parallelism = parallelism
		if _, err := ev.EvaluateBatch(pts, true); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	sameHistories(t, "parallel", run(1), run(4))
}

// stageSpanNames counts the journal's stage spans by name.
func stageSpanNames(events []obs.Event) map[string]int {
	names := map[string]int{}
	for _, e := range events {
		if s, ok := e.(*obs.SpanEvent); ok && s.SpanKind == obs.SpanStage {
			names[s.Name]++
		}
	}
	return names
}

// TestSimBatchStreamedBypass: a streamed batch never runs the separate
// simulate stage — each (design, workload) runs one fused deg_stream
// stage instead — and still matches the buffered windowed batch.
func TestSimBatchStreamedBypass(t *testing.T) {
	pts := batchPoints(24, 4)

	buffered := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	buffered.DEGWindow = 400
	if _, err := buffered.EvaluateBatch(pts, true); err != nil {
		t.Fatal(err)
	}
	streamed := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	streamed.DEGStream = true
	streamed.DEGWindow = 400
	events := journaledBatch(t, streamed, func(ev *Evaluator) error {
		_, err := ev.EvaluateBatch(pts, true)
		return err
	})
	sameHistories(t, "streamed", buffered, streamed)
	names := stageSpanNames(events)
	sims := len(streamed.History) * len(streamed.Workloads)
	if names["sim"] != 0 || names["deg"] != 0 {
		t.Fatalf("streamed batch ran %d sim and %d deg stages", names["sim"], names["deg"])
	}
	if names["deg_stream"] != sims {
		t.Fatalf("streamed batch ran %d deg_stream stages, want %d", names["deg_stream"], sims)
	}
}

// journaledBatch runs fn on ev with a journal attached and returns the
// journal's events.
func journaledBatch(t *testing.T, ev *Evaluator, fn func(*Evaluator) error) []obs.Event {
	t.Helper()
	raw := journaledBatchRaw(t, ev, fn)
	events, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func journaledBatchRaw(t *testing.T, ev *Evaluator, fn func(*Evaluator) error) []byte {
	t.Helper()
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec
	if err := fn(ev); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// simBatchJournal runs one EvaluateBatch with DEG analysis and a journal
// attached.
func simBatchJournal(t *testing.T, parallelism int, plan *fault.Plan) (*Evaluator, []byte) {
	t.Helper()
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	ev.Parallelism = parallelism
	ev.Faults = plan
	ev.Retry = noSleepRetry
	raw := journaledBatchRaw(t, ev, func(ev *Evaluator) error {
		_, err := ev.EvaluateBatch(batchPoints(25, 5), true)
		return err
	})
	return ev, raw
}

// TestSimBatchJournalDeterministic: a batch's telemetry is committed on
// the driving goroutine, so its journal — span tree included — is the
// same at any parallelism once measurements are dropped.
func TestSimBatchJournalDeterministic(t *testing.T) {
	_, seqRaw := simBatchJournal(t, 1, nil)
	_, parRaw := simBatchJournal(t, 4, nil)
	sameCanonicalJournal(t, seqRaw, parRaw)

	seqEvents, err := obs.ReadJournal(bytes.NewReader(seqRaw))
	if err != nil {
		t.Fatal(err)
	}
	parEvents, err := obs.ReadJournal(bytes.NewReader(parRaw))
	if err != nil {
		t.Fatal(err)
	}
	seq, par := spanShapes(seqEvents), spanShapes(parEvents)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("span counts: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("span tree diverges at span %d:\n  seq: %+v\n  par: %+v", i, seq[i], par[i])
		}
	}
}

// TestSimBatchSpans checks the simulate stages' span emission: every eval
// span of the batch parents exactly one sim stage span per workload, in
// suite order, and every eval span is parented by the batch span.
func TestSimBatchSpans(t *testing.T) {
	ev, raw := simBatchJournal(t, 2, nil)
	events, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	shapes := spanShapes(events)

	var batchSpan int64
	for _, s := range shapes {
		if s.kind == obs.SpanBatch {
			batchSpan = s.span
		}
	}
	if batchSpan == 0 {
		t.Fatal("no batch span journaled")
	}
	sims := map[int64][]string{} // eval span -> workloads of its sim stages
	evals := 0
	for _, s := range shapes {
		switch {
		case s.kind == obs.SpanStage && s.name == "sim":
			sims[s.parent] = append(sims[s.parent], s.workload)
		case s.kind == obs.SpanEval:
			evals++
			if s.parent != batchSpan {
				t.Fatalf("eval span %d parented to %d, batch span is %d", s.span, s.parent, batchSpan)
			}
			got := sims[s.span]
			if len(got) != len(ev.Workloads) {
				t.Fatalf("eval span %d has %d sim stages, want %d", s.span, len(got), len(ev.Workloads))
			}
			for k, wl := range got {
				if wl != ev.Workloads[k].Name {
					t.Fatalf("eval span %d sim stage %d carries workload %q, want %q (suite order)",
						s.span, k, wl, ev.Workloads[k].Name)
				}
			}
		}
	}
	if evals != len(ev.History) {
		t.Fatalf("journaled %d eval spans, want one per unique design (%d)", evals, len(ev.History))
	}
}

// TestSimBatchHistogram: the simulate-stage histogram and the committed
// instruction counter see every (design, workload) simulation of a batch
// exactly once — duplicates and cache hits add nothing.
func TestSimBatchHistogram(t *testing.T) {
	ev, _ := simBatchJournal(t, 4, nil)
	sims := len(ev.History) * len(ev.Workloads)
	if _, _, count := ev.Obs.Histogram(obs.MetricStageSim).Snapshot(); count != uint64(sims) {
		t.Fatalf("sim histogram count %d, want %d designs x %d workloads",
			count, len(ev.History), len(ev.Workloads))
	}
	var insts int64
	for _, e := range ev.History {
		insts += e.SimInsts
	}
	if got := ev.Obs.Counter(obs.MetricSimInsts).Value(); got != insts {
		t.Fatalf("sim instruction counter %d, want the history's %d", got, insts)
	}
}

// TestSimBatchSingleJobSkips: a batch naming one design twice simulates it
// once per workload and charges the budget once; the second slot is a
// cache hit.
func TestSimBatchSingleJobSkips(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	rec := obs.New()
	ev.Obs = rec
	pt := ev.Space.Nearest(uarch.Baseline())
	evals, err := ev.EvaluateBatch([]uarch.Point{pt, pt}, true)
	if err != nil {
		t.Fatal(err)
	}
	if evals[0] != evals[1] || len(ev.History) != 1 {
		t.Fatalf("duplicate slots produced %d history entries", len(ev.History))
	}
	if want := float64(len(ev.Workloads)); ev.Sims != want {
		t.Fatalf("charged %.1f sims, want %.1f", ev.Sims, want)
	}
	if _, _, count := rec.Histogram(obs.MetricStageSim).Snapshot(); count != uint64(len(ev.Workloads)) {
		t.Fatalf("single-design batch ran %d simulations, want %d", count, len(ev.Workloads))
	}
	if hits := rec.Counter(obs.MetricCacheHits).Value(); hits != 1 {
		t.Fatalf("cache hits %d, want 1", hits)
	}
}

// TestSimBatchTransientSimFaultsAbsorbed: transient failures of a batch's
// simulate stages are retried, and the batch's results stay identical to a
// clean run.
func TestSimBatchTransientSimFaultsAbsorbed(t *testing.T) {
	pts := batchPoints(26, 4)
	clean := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	if _, err := clean.EvaluateBatch(pts, true); err != nil {
		t.Fatal(err)
	}

	plan := fault.MustPlan(
		fault.Injection{Site: fault.SiteSim, Nth: 1, Count: 2, Class: fault.Transient},
	)
	faulted := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	faulted.Parallelism = 1
	faulted.Faults = plan
	faulted.Retry = noSleepRetry
	if _, err := faulted.EvaluateBatch(pts, true); err != nil {
		t.Fatal(err)
	}
	sameHistories(t, "transient-sim", clean, faulted)
	if plan.Hits(fault.SiteSim) < 3 {
		t.Fatalf("expected retries at the sim site, got %d hits", plan.Hits(fault.SiteSim))
	}
}

// TestSimBatchPermanentSimFaultsEquivalent: a blanket permanent failure at
// the sim site skips every design of the batch identically at any
// parallelism, and every trace goes back to the pool.
func TestSimBatchPermanentSimFaultsEquivalent(t *testing.T) {
	base := tracePoolLive()
	pts := batchPoints(27, 4)
	run := func(parallelism int) *Evaluator {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.Parallelism = parallelism
		ev.SkipFailures = true
		ev.Faults = fault.MustPlan(
			fault.Injection{Site: fault.SiteSim, Nth: 1, Count: 1 << 20, Class: fault.Permanent},
		)
		ev.Retry = noSleepRetry
		if _, err := ev.EvaluateBatch(pts, true); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	seq, parallel := run(1), run(4)
	sameHistories(t, "permanent-sim", seq, parallel)
	for _, e := range parallel.History {
		if !e.Failed || e.FailSite != fault.SiteSim {
			t.Fatalf("expected sim failure, got %+v", e)
		}
	}
	waitPoolDrained(t, base)
}

// TestSimBatchFallbackOnSiteFault: one permanent simulate failure inside a
// batch degrades only its design to a journaled skip; every sibling design
// commits the clean run's results, and nothing leaks.
func TestSimBatchFallbackOnSiteFault(t *testing.T) {
	base := tracePoolLive()
	pts := batchPoints(25, 5)
	clean := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	if _, err := clean.EvaluateBatch(pts, true); err != nil {
		t.Fatal(err)
	}

	plan := fault.MustPlan(
		fault.Injection{Site: fault.SiteSim, Nth: 2, Class: fault.Permanent},
	)
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	ev.Parallelism = 1
	ev.SkipFailures = true
	ev.Faults = plan
	ev.Retry = noSleepRetry
	events := journaledBatch(t, ev, func(ev *Evaluator) error {
		_, err := ev.EvaluateBatch(pts, true)
		return err
	})

	if ev.Sims != clean.Sims || len(ev.History) != len(clean.History) {
		t.Fatalf("faulted batch: %.1f sims, %d history; clean %.1f, %d",
			ev.Sims, len(ev.History), clean.Sims, len(clean.History))
	}
	failed := -1
	for i, e := range ev.History {
		if e.Failed {
			if failed >= 0 {
				t.Fatalf("designs %d and %d both failed", failed, i)
			}
			failed = i
			if e.FailSite != fault.SiteSim || e.Point != clean.History[i].Point {
				t.Fatalf("malformed failed entry: %+v", e)
			}
			continue
		}
		sameEvaluation(t, "sibling", clean.History[i], e)
	}
	if failed < 0 {
		t.Fatal("no design failed")
	}

	var skips []*obs.FaultEvent
	for _, e := range events {
		if f, ok := e.(*obs.FaultEvent); ok && f.Action == "skip" {
			skips = append(skips, f)
		}
	}
	if len(skips) != 1 {
		t.Fatalf("journaled %d skip events, want 1", len(skips))
	}
	f := skips[0]
	if f.Site != fault.SiteSim || f.Class != "permanent" || f.Err == "" ||
		!slices.Equal(f.Point, ev.History[failed].Point[:]) {
		t.Fatalf("malformed skip event: %+v", f)
	}
	waitPoolDrained(t, base)
}

// TestSimBatchKillAborts: a kill-class injection at the sim site unwinds
// the whole batch, even in skip mode, and leaks no trace. Sequentially the
// first simulation belongs to the first design, so nothing commits; in
// parallel the killed design may be a later one, and the batch commits at
// most the clean run's designs that precede it, exactly as a sequential
// loop would have.
func TestSimBatchKillAborts(t *testing.T) {
	base := tracePoolLive()
	pts := batchPoints(28, 4)
	clean := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	if _, err := clean.EvaluateBatch(pts, true); err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.Parallelism = parallelism
		ev.SkipFailures = true // kills must abort even in skip mode
		ev.Faults = fault.MustPlan(
			fault.Injection{Site: fault.SiteSim, Nth: 1, Class: fault.Kill},
		)
		_, err := ev.EvaluateBatch(pts, true)
		if err == nil || !fault.IsKill(err) {
			t.Fatalf("parallelism %d: expected kill to surface, got %v", parallelism, err)
		}
		if parallelism == 1 && (len(ev.History) != 0 || ev.Sims != 0) {
			t.Fatalf("killed sequential batch committed %d evaluations, %.1f sims", len(ev.History), ev.Sims)
		}
		if len(ev.History) >= len(clean.History) {
			t.Fatalf("parallelism %d: killed batch committed all %d designs", parallelism, len(ev.History))
		}
		for i, e := range ev.History {
			sameEvaluation(t, "killed-prefix", clean.History[i], e)
		}
	}
	waitPoolDrained(t, base)
}

// TestSimBatchNoTraceLeak: every simulated trace is released — the trace
// pool balances after lite, full (DEG upgrade) and probe batches.
func TestSimBatchNoTraceLeak(t *testing.T) {
	base := tracePoolLive()
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	pts := batchPoints(29, 5)
	if _, err := ev.EvaluateBatch(pts, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvaluateBatch(pts, true); err != nil { // DEG upgrade re-batches
		t.Fatal(err)
	}
	if _, err := ev.ProbeBatch(batchPoints(30, 4)); err != nil {
		t.Fatal(err)
	}
	waitPoolDrained(t, base)
}
