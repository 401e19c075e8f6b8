package dse

import (
	"bytes"
	"testing"
	"time"

	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// journaledCampaign drives one ArchExplorer campaign with a journal
// attached and returns the evaluator plus the raw journal bytes.
func journaledCampaign(t *testing.T, parallelism int) (*Evaluator, []byte) {
	t.Helper()
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	ev.Parallelism = parallelism
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec
	if err := NewArchExplorer(7).Run(ev, 40); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return ev, buf.Bytes()
}

// runWithJournal is journaledCampaign with the journal parsed into events.
func runWithJournal(t *testing.T, parallelism int) (*Evaluator, []obs.Event) {
	t.Helper()
	ev, raw := journaledCampaign(t, parallelism)
	events, err := obs.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return ev, events
}

// sameCanonicalJournal requires two journals of one campaign to be
// byte-identical once obs.CanonicalJournal has dropped the measurements
// (timings, worker slots), which may legitimately vary between runs.
func sameCanonicalJournal(t *testing.T, seqRaw, parRaw []byte) {
	t.Helper()
	seqJ, parJ := obs.CanonicalJournal(seqRaw), obs.CanonicalJournal(parRaw)
	if len(seqJ) == 0 {
		t.Fatal("empty journal")
	}
	if bytes.Equal(seqJ, parJ) {
		return
	}
	// Find the first diverging line for a readable failure.
	sl, pl := bytes.Split(seqJ, []byte("\n")), bytes.Split(parJ, []byte("\n"))
	for i := 0; i < len(sl) && i < len(pl); i++ {
		if !bytes.Equal(sl[i], pl[i]) {
			t.Fatalf("journal bytes differ at line %d:\nseq %s\npar %s", i+1, sl[i], pl[i])
		}
	}
	t.Fatalf("journal lengths differ: %d vs %d lines", len(sl), len(pl))
}

// journalStageTotals reduces a journal's eval spans the same way the
// evaluator's history is maintained: a span that replaces another (a DEG
// upgrade of a cached entry) supersedes it.
func journalStageTotals(events []obs.Event) StageTimes {
	live := make(map[int64]StageTimes)
	for _, e := range events {
		span, ok := e.(*obs.EvalSpan)
		if !ok {
			continue
		}
		if span.Replaces != 0 {
			delete(live, span.Replaces)
		}
		live[span.Span] = StageTimes{
			Trace: time.Duration(span.TraceNS),
			Sim:   time.Duration(span.SimNS),
			Power: time.Duration(span.PowerNS),
			DEG:   time.Duration(span.DEGNS),
		}
	}
	var t StageTimes
	for _, st := range live {
		t.add(st)
	}
	return t
}

// TestJournalStageSumsMatchStageTotals is the tentpole's accounting
// contract: the journal's per-stage duration sums must equal
// Evaluator.StageTotals exactly (both are nanosecond-integral sums over
// the same evaluations, with superseded upgrade spans dropped).
func TestJournalStageSumsMatchStageTotals(t *testing.T) {
	ev, events := runWithJournal(t, 4)
	if got, want := journalStageTotals(events), ev.StageTotals(); got != want {
		t.Fatalf("journal stage sums %+v != StageTotals %+v", got, want)
	}

	evalSpans := 0
	for _, e := range events {
		if _, ok := e.(*obs.EvalSpan); ok {
			evalSpans++
		}
	}
	if evalSpans < len(ev.History) {
		t.Fatalf("journal holds %d eval spans for %d history entries", evalSpans, len(ev.History))
	}
}

// TestJournalUpgradeReplacesSpan pins the upgrade path: re-requesting a
// cached evaluation with DEG analysis emits a span that references the one
// it supersedes, and the journal reduction still matches StageTotals.
func TestJournalUpgradeReplacesSpan(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec

	pt := ev.Space.Nearest(uarch.Baseline())
	if _, err := ev.Evaluate(pt, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(pt, true); err != nil { // upgrade: adds the report
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spans []*obs.EvalSpan
	for _, e := range events {
		if s, ok := e.(*obs.EvalSpan); ok {
			spans = append(spans, s)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("expected 2 eval spans, got %d", len(spans))
	}
	if spans[0].Replaces != 0 {
		t.Fatalf("first span replaces %d", spans[0].Replaces)
	}
	if spans[1].Replaces != spans[0].Span {
		t.Fatalf("upgrade replaces %d, want %d", spans[1].Replaces, spans[0].Span)
	}
	if got, want := journalStageTotals(events), ev.StageTotals(); got != want {
		t.Fatalf("journal stage sums %+v != StageTotals %+v", got, want)
	}
	if hits := rec.Counter(obs.MetricCacheUpgrades).Value(); hits != 1 {
		t.Fatalf("upgrade counter %d, want 1", hits)
	}
}

// TestJournalOrderingDeterministic is the enabled-telemetry contract: a
// parallel run's journal must carry the same events in the same order as
// the sequential run's — only the measurements inside may differ. Emission
// happens in the evaluator's commit phase, which is what makes this hold.
func TestJournalOrderingDeterministic(t *testing.T) {
	_, seqRaw := journaledCampaign(t, 1)
	_, parRaw := journaledCampaign(t, 4)
	sameCanonicalJournal(t, seqRaw, parRaw)
}

// TestTelemetryDoesNotPerturbResults: the other half of the byte-identical
// guarantee — attaching a recorder (metrics + journal + running-HV
// computation) must not change any deterministic evaluation outcome.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	bare := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	if err := NewArchExplorer(7).Run(bare, 40); err != nil {
		t.Fatal(err)
	}
	wired, _ := runWithJournal(t, 0)

	if bare.Sims != wired.Sims {
		t.Fatalf("Sims differ: bare %v, instrumented %v", bare.Sims, wired.Sims)
	}
	if len(bare.History) != len(wired.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(bare.History), len(wired.History))
	}
	for i := range bare.History {
		sameEvaluation(t, "history", bare.History[i], wired.History[i])
	}
}

// TestCacheCounters pins the phase-1 cache accounting: a batch with
// duplicates and cached entries increments hits/misses the way the
// sequential loop's semantics define them.
func TestCacheCounters(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	rec := obs.New()
	ev.Obs = rec
	pt := ev.Space.Nearest(uarch.Baseline())

	if _, err := ev.EvaluateBatch([]uarch.Point{pt, pt, pt}, false); err != nil {
		t.Fatal(err)
	}
	if h, m := rec.Counter(obs.MetricCacheHits).Value(), rec.Counter(obs.MetricCacheMisses).Value(); h != 2 || m != 1 {
		t.Fatalf("after fresh batch: hits=%d misses=%d, want 2/1", h, m)
	}
	if _, err := ev.Evaluate(pt, false); err != nil {
		t.Fatal(err)
	}
	if h := rec.Counter(obs.MetricCacheHits).Value(); h != 3 {
		t.Fatalf("cached repeat not counted: hits=%d", h)
	}
	if got := rec.Counter(obs.MetricEvaluations).Value(); got != 1 {
		t.Fatalf("evaluations counter %d, want 1", got)
	}
	if spent := rec.Gauge(obs.MetricBudgetSpent).Value(); spent != ev.Sims {
		t.Fatalf("budget gauge %v, want %v", spent, ev.Sims)
	}
}
