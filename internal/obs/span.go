package obs

import (
	"regexp"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, from the outside in. A campaign is one tool invocation (or
// one grid cell of an experiment fan-out); an iteration is one explorer
// decision step; a batch is one EvaluateBatch/ProbeBatch commit; an eval is
// one committed evaluation (sharing its id with the EvalSpan event); a
// stage is one worker-side pipeline stage of one workload.
const (
	SpanCampaign  = "campaign"
	SpanIteration = "iteration"
	SpanBatch     = "batch"
	SpanEval      = "eval"
	SpanStage     = "stage"
)

// SpanEvent is one node of the campaign's own execution tree, the raw
// material the selfdeg analysis reconstructs the campaign dependency graph
// from. Spans are emitted from the evaluator's commit phase (children
// before their parent, so a reader sees a post-order traversal), which
// keeps the sequence of (kind, name, parent-shape) deterministic for a
// given campaign; StartNS/DurNS and Worker are measurements and vary run
// to run, exactly like the duration fields of EvalSpan. With the journal
// disabled nothing is emitted and nothing is measured.
type SpanEvent struct {
	Head
	Span   int64 `json:"span"`
	Parent int64 `json:"parent,omitempty"`
	// SpanKind is one of the Span* constants. (The field cannot be called
	// Kind: that name is taken by the Event interface method.)
	SpanKind string `json:"kind"`
	// Name identifies the span within its kind: the tool/explorer for a
	// campaign, "w<walk>.s<step>" for an iteration, "evaluate"/"probe" for
	// a batch, the design-point config for an eval, the stage name
	// (trace, sim, power, deg, deg_stream) for a stage.
	Name     string `json:"name,omitempty"`
	Workload string `json:"workload,omitempty"` // stage spans: workload being simulated
	// Worker is the 1-based evaluator worker slot a stage ran on; slots are
	// assigned lowest-free-first, so the number of distinct values observed
	// equals the campaign's effective parallelism.
	Worker int   `json:"worker,omitempty"`
	Point  []int `json:"point,omitempty"` // eval spans: the design point
	// Cache classifies how an eval span was satisfied: "" (computed),
	// "upgrade" (cached entry re-run to attach a DEG report), "replay"
	// (restored from a checkpoint, no compute), or "failed".
	Cache string `json:"cache,omitempty"`
	// Hits is the batch's cache-hit short-circuit count: slots served from
	// the evaluation cache without spawning any child eval span.
	Hits    int   `json:"hits,omitempty"`
	StartNS int64 `json:"start_ns"` // offset from recorder creation, monotonic
	DurNS   int64 `json:"dur_ns"`
}

// Kind implements Event.
func (*SpanEvent) Kind() string { return "span" }

// End returns the span's end offset.
func (s *SpanEvent) End() int64 { return s.StartNS + s.DurNS }

// measurementField matches one measurement in a journal line: every
// duration or clock offset (the fields named *_ns, e.g. SpanEvent's
// start_ns/dur_ns and EvalSpan's per-stage times), RunStart's wall-clock
// "time" stamp, a stage span's "worker" slot (slots record which worker
// happened to be free, so they depend on scheduling), and the wall-clock
// derived gauges of RunEnd's metrics snapshot (rates named *_per_sec and
// the archx_runtime_* self-profile samples). Every other journal field is
// a result: deterministic for a given campaign at any parallelism or
// worker count.
var measurementField = func() *regexp.Regexp {
	const num = `-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?`
	field := `(?:"[a-z_]+_ns":` + num + `|"worker":\d+|"time":"[^"]*"` +
		`|"[a-z_]+_per_sec":` + num + `|"archx_runtime_[a-z_]+":` + num + `)`
	return regexp.MustCompile(`,` + field + `|` + field + `,?`)
}()

// CanonicalJournal returns the raw journal with every measurement field
// removed, leaving only results. Two runs of one campaign must produce
// byte-identical canonical journals; the measurements are free to differ.
func CanonicalJournal(raw []byte) []byte {
	return measurementField.ReplaceAll(raw, nil)
}

// Clock returns nanoseconds since the recorder was created, from the
// monotonic clock — the time base of every SpanEvent. Returns 0 on a nil
// recorder, so disabled-telemetry paths measure nothing.
func (r *Recorder) Clock() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.start))
}

// SpansActive reports whether instrumented code should capture span
// timings at all: a journal is attached (spans are committed to it) or the
// live dashboard has asked for in-flight spans.
func (r *Recorder) SpansActive() bool {
	if r == nil {
		return false
	}
	return r.liveOn.Load() || r.JournalEnabled()
}

// LiveSpan is one in-flight span as shown by the dashboard. Live tracking
// has its own id space (ids never reach the journal): journal span ids are
// allocated at commit time, after the work is done, which is exactly when
// a live view no longer cares.
type LiveSpan struct {
	ID       int64  `json:"id"`
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	Workload string `json:"workload,omitempty"`
	Worker   int    `json:"worker,omitempty"`
	StartNS  int64  `json:"start_ns"`
}

// EnableLiveSpans turns on in-flight span tracking (idempotent). The
// dashboard calls this lazily on its first request, so campaigns nobody
// watches pay only one atomic load per span.
func (r *Recorder) EnableLiveSpans() {
	if r == nil {
		return
	}
	r.liveMu.Lock()
	if r.live == nil {
		r.live = make(map[int64]LiveSpan)
	}
	r.liveMu.Unlock()
	r.liveOn.Store(true)
}

// TrackSpan registers an in-flight span with the live view and returns the
// closure that retires it. When live tracking is off (or r is nil) it
// returns a no-op without taking any lock.
func (r *Recorder) TrackSpan(kind, name, workload string, worker int) func() {
	if r == nil || !r.liveOn.Load() {
		return func() {}
	}
	id := r.liveIDs.Add(1)
	s := LiveSpan{ID: id, Kind: kind, Name: name, Workload: workload, Worker: worker, StartNS: r.Clock()}
	r.liveMu.Lock()
	if r.live != nil {
		r.live[id] = s
	}
	r.liveMu.Unlock()
	return func() {
		r.liveMu.Lock()
		delete(r.live, id)
		r.liveMu.Unlock()
	}
}

// InFlight snapshots the live spans, oldest first (ties broken by id so
// the order is total).
func (r *Recorder) InFlight() []LiveSpan {
	if r == nil {
		return nil
	}
	r.liveMu.Lock()
	out := make([]LiveSpan, 0, len(r.live))
	for _, s := range r.live {
		out = append(out, s)
	}
	r.liveMu.Unlock()
	sortLiveSpans(out)
	return out
}

func sortLiveSpans(s []LiveSpan) {
	for i := 1; i < len(s); i++ { // insertion sort: the in-flight set is tiny
		for j := i; j > 0 && (s[j].StartNS < s[j-1].StartNS ||
			(s[j].StartNS == s[j-1].StartNS && s[j].ID < s[j-1].ID)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// CampaignSpan opens the root span of a campaign and returns its id plus
// the closure that emits the span event; call it after the run's last
// journal event of interest (conventionally just before RunEnd). Children
// parent to the returned id via Evaluator.SpanParent. Without a journal it
// returns (0, no-op) and allocates nothing, preserving the byte-identical
// journal contract — 0 is never a valid span id, so instrumented code can
// use "parent != 0" as the spans-enabled test.
func (r *Recorder) CampaignSpan(name string) (int64, func()) {
	if r == nil || !r.JournalEnabled() {
		return 0, func() {}
	}
	id := r.NextSpan()
	start := r.Clock()
	done := r.TrackSpan(SpanCampaign, name, "", 0)
	return id, func() {
		done()
		r.Emit(&SpanEvent{Span: id, SpanKind: SpanCampaign, Name: name, StartNS: start, DurNS: r.Clock() - start})
	}
}

// spanLive is the recorder state behind live span tracking, kept in its
// own struct so Recorder's field list stays readable.
type spanLive struct {
	liveOn  atomic.Bool
	liveIDs atomic.Int64
	liveMu  sync.Mutex
	live    map[int64]LiveSpan
}
