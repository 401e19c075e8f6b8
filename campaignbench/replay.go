package main

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"archexplorer/internal/deg"
	"archexplorer/internal/dse"
	"archexplorer/internal/mcpat"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pareto"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call site; the program itself carries no tracing. Name is "layer.op".
type span struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent,omitempty"`
	Name       string `json:"name"`
	Eval       int    `json:"eval"`
	Workload   string `json:"workload,omitempty"`
	StartNS    int64  `json:"start_ns"`
	DurNS      int64  `json:"dur_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer runs the
// calls untimed, which is how the untraced run's replay check uses it.
type tracer struct {
	origin time.Time
	spans  []span
	nextID int64
	heap   [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.heap[0].Name = "/gc/heap/allocs:bytes"
	return t
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.heap[:])
	return t.heap[0].Value.Uint64()
}

// do runs fn inside a span and records it once fn returns; fn receives the
// span's id so nested calls can name it as their parent.
func (t *tracer) do(name string, parent int64, eval int, wl string, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	t.nextID++
	id := t.nextID
	a0 := t.heapAllocs()
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Eval: eval, Workload: wl,
		StartNS: t0.Sub(t.origin).Nanoseconds(), DurNS: d.Nanoseconds(),
		AllocBytes: t.heapAllocs() - a0,
	})
}

// totals sums span durations (seconds) and allocations (bytes) by span name
// and by layer, counting only leaf spans — those no other span names as
// parent — so nested time is not counted twice.
func (t *tracer) totals() (byName, byLayer map[string]float64, allocByLayer map[string]uint64) {
	parents := map[int64]bool{}
	for i := range t.spans {
		parents[t.spans[i].Parent] = true
	}
	byName, byLayer, allocByLayer = map[string]float64{}, map[string]float64{}, map[string]uint64{}
	for i := range t.spans {
		s := &t.spans[i]
		if parents[s.ID] {
			continue
		}
		sec := time.Duration(s.DurNS).Seconds()
		byName[s.Name] += sec
		byLayer[s.layer()] += sec
		allocByLayer[s.layer()] += s.AllocBytes
	}
	return byName, byLayer, allocByLayer
}

// replayCounts are the work counts the replay observed.
type replayCounts struct {
	oooCalls, mcpatCalls, degCalls int
	insts, cycles                  int64
	edges, vertices, drops         int64
}

// genTraces regenerates every trace the campaign's set-up generated,
// bypassing the cache, so trace generation is timed as a layer.
func genTraces(c *campaign, ev *dse.Evaluator, t *tracer) (insts int64, bad []string) {
	lens := []int{ev.TraceLen}
	if c.probes {
		lens = append(lens, probeLen(ev))
	}
	for _, n := range lens {
		for _, p := range c.suite {
			var ninst int
			var err error
			t.do("workload.gen", 0, -1, p.Name, func(int64) {
				tr, e := workload.Trace(p, n)
				ninst, err = len(tr), e
			})
			if err != nil {
				bad = append(bad, fmt.Sprintf("trace %s/%d: %v", p.Name, n, err))
				continue
			}
			insts += int64(ninst)
		}
	}
	return insts, bad
}

// replay re-runs the History entries selected by idx through each layer's
// public functions, in the order the evaluator calls them — trace lookup,
// ooo.New, Run or RunLite, mcpat.Evaluate, then deg.Build, Construct and
// Attribute per workload, and deg.Merge across the suite — and checks that
// every IPC, power, area, instruction count and merged report equals the
// campaign's bit for bit.
func replay(ev *dse.Evaluator, idx []int, t *tracer) (n replayCounts, bad []string) {
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if ev.Weights != nil {
		fail("replay supports uniform workload weights only")
		return n, bad
	}
	for _, i := range idx {
		e := ev.History[i]
		if e.Failed {
			continue
		}
		t.do("dse.eval", 0, i, "", func(id int64) {
			cnt, msgs := replayEval(ev, i, e, id, t)
			n.add(cnt)
			for _, m := range msgs {
				fail("history[%d] %s: %s", i, e.Config, m)
			}
		})
	}
	return n, bad
}

func (n *replayCounts) add(o replayCounts) {
	n.oooCalls += o.oooCalls
	n.mcpatCalls += o.mcpatCalls
	n.degCalls += o.degCalls
	n.insts += o.insts
	n.cycles += o.cycles
	n.edges += o.edges
	n.vertices += o.vertices
	n.drops += o.drops
}

func replayEval(ev *dse.Evaluator, i int, e *dse.Evaluation, parent int64, t *tracer) (n replayCounts, bad []string) {
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	cfg := e.Config
	traceLen := ev.TraceLen
	if e.Probe {
		traceLen = probeLen(ev)
	}
	withDEG := e.Report != nil
	var ipcSum, powSum, area float64
	var reports []*deg.Report
	degOK := withDEG
	for k, wl := range ev.Workloads {
		stream, err := workload.CachedTrace(wl, traceLen)
		if err != nil {
			fail("%s: trace: %v", wl.Name, err)
			return n, bad
		}
		var core *ooo.Core
		t.do("ooo.new", parent, i, wl.Name, func(int64) { core, err = ooo.New(cfg) })
		if err != nil {
			fail("%s: ooo.New: %v", wl.Name, err)
			return n, bad
		}
		var tr *pipetrace.Trace
		var st *ooo.Stats
		t.do("ooo.run", parent, i, wl.Name, func(int64) {
			if withDEG {
				tr, st, err = core.Run(stream)
			} else {
				tr, st, err = core.RunLite(stream)
			}
		})
		n.oooCalls++
		if err != nil {
			fail("%s: ooo run: %v", wl.Name, err)
			return n, bad
		}
		n.insts += int64(len(tr.Records))
		n.cycles += st.Cycles

		var pw mcpat.Result
		t.do("mcpat.eval", parent, i, wl.Name, func(int64) { pw, err = mcpat.Evaluate(cfg, st) })
		n.mcpatCalls++
		if err != nil {
			tr.Release()
			fail("%s: mcpat: %v", wl.Name, err)
			return n, bad
		}
		ipc := st.IPC()
		if e.Probe {
			if w, ok := warmWindowIPC(tr); ok {
				ipc = w
			}
		}
		if k >= len(e.PerWorkloadIPC) || ipc != e.PerWorkloadIPC[k] {
			fail("%s: replayed IPC %v differs from the campaign's", wl.Name, ipc)
		}
		ipcSum += ipc
		powSum += pw.PowerW
		area = pw.AreaMM2

		if withDEG {
			rep, msgs := replayDEG(tr, parent, i, wl.Name, t, &n)
			for _, m := range msgs {
				fail("%s: %s", wl.Name, m)
			}
			reports = append(reports, rep)
			degOK = degOK && rep != nil
		}
		tr.Release()
	}

	nw := float64(len(ev.Workloads))
	if ppa := (pareto.Point{Perf: ipcSum / nw, Power: powSum / nw, Area: area}); ppa != e.PPA {
		fail("replayed PPA %v differs from the campaign's %v", ppa, e.PPA)
	}
	if n.insts != e.SimInsts {
		fail("replayed %d instructions, the campaign committed %d", n.insts, e.SimInsts)
	}
	if degOK {
		var merged *deg.Report
		var err error
		t.do("deg.merge", parent, i, "", func(int64) { merged, err = deg.Merge(reports, ev.Weights) })
		switch {
		case err != nil:
			fail("deg.Merge: %v", err)
		case *merged != *e.Report:
			fail("replayed merged report differs from the campaign's")
		}
	}
	return n, bad
}

// replayDEG runs deg.Analyze's three steps as separate timed calls.
func replayDEG(tr *pipetrace.Trace, parent int64, i int, wl string, t *tracer, n *replayCounts) (*deg.Report, []string) {
	var g *deg.Graph
	var err error
	t.do("deg.build", parent, i, wl, func(int64) { g, err = deg.Build(tr, deg.Options{}) })
	n.degCalls++
	if err != nil {
		return nil, []string{fmt.Sprintf("deg.Build: %v", err)}
	}
	n.edges += int64(len(g.Edges))
	n.vertices += int64(g.NumVertices)
	n.drops += int64(g.Dropped())
	var cp *deg.CriticalPath
	t.do("deg.construct", parent, i, wl, func(int64) { cp, err = g.Construct() })
	if err != nil {
		return nil, []string{fmt.Sprintf("deg.Construct: %v", err)}
	}
	var rep *deg.Report
	t.do("deg.attribute", parent, i, wl, func(int64) { rep = deg.Attribute(tr, cp) })
	var bad []string
	if err := telescopes(rep); err != nil {
		bad = append(bad, err.Error())
	}
	if d := g.Dropped(); d != 0 {
		bad = append(bad, fmt.Sprintf("%d dropped DEG edges", d))
	}
	return rep, bad
}

// warmWindowIPC is the evaluator's probe IPC: IPC over the trace after its
// first third, which discards cold-cache and predictor warm-up.
func warmWindowIPC(tr *pipetrace.Trace) (float64, bool) {
	n := len(tr.Records)
	if n < 3 {
		return 0, false
	}
	warm := n / 3
	span := tr.Records[n-1].Stamp[pipetrace.SC] - tr.Records[warm].Stamp[pipetrace.SC]
	if span <= 0 {
		return 0, false
	}
	return float64(n-warm-1) / float64(span), true
}

// sampleIndices picks up to k History entries spread evenly from the first
// to the last, for the untraced run's replay check.
func sampleIndices(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, k)
	for j := 0; j < k; j++ {
		out = append(out, j*(n-1)/(k-1))
	}
	return out
}
