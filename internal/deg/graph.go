// Package deg implements the paper's new dynamic event-dependence graph
// (DEG) formulation of microexecution, the induced DEG with virtual edges,
// the dynamic-programming critical-path construction (Algorithm 1), and the
// per-resource bottleneck contribution report (Equations 1 and 2).
//
// Vertices are pipeline events of committed instructions placed on the real
// time axis (each vertex is (instruction sequence, stage) with the cycle
// stamp the simulator observed). Edges follow Table 2 of the paper:
//
//   - Pipeline dependence (horizontal): F1→F2→F→DC→R→DP→I→(M)→P→C inside
//     one instruction.
//   - Misprediction dependence: P(i)→F1(j), where j is the first
//     instruction fetched after branch i's misprediction resolved.
//   - Hardware resource dependence: R(i)→R(j) when instruction j stalled at
//     rename for an entry of ROB/IQ/LQ/SQ/IntRF/FpRF that i released, per
//     the simulator's scoreboard; and I(i)→I(j) for functional units and
//     cache read/write ports.
//   - True data dependence: I(i)→I(j) for read-after-write producers that
//     were not ready when j entered the issue window.
//
// Every edge carries its actual delay (the time interval between its
// endpoints — the events' timing information the paper embeds), and a DP
// cost: resource and misprediction edges cost their delay, all other edges
// cost zero (Section 4.2's cost assignment). The induced DEG adds zero-cost
// virtual edges connecting "skewed" edges under Rule 1 (closest in time)
// and Rule 2 (closest in instruction sequence) so that consecutive resource
// usage episodes chain into one critical path.
package deg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// EdgeKind classifies DEG edges (Table 2 plus the induced DEG's virtual
// edges).
type EdgeKind uint8

const (
	EdgePipeline EdgeKind = iota
	EdgeMispredict
	EdgeResource // rename-to-rename hardware resource usage
	EdgeFU       // issue-to-issue functional unit / port usage
	EdgeData     // true data dependence
	EdgeVirtual
	numEdgeKinds
)

// NumEdgeKinds is the number of edge classes.
const NumEdgeKinds = int(numEdgeKinds)

var edgeKindNames = [...]string{
	EdgePipeline:   "pipeline",
	EdgeMispredict: "mispredict",
	EdgeResource:   "resource",
	EdgeFU:         "fu",
	EdgeData:       "data",
	EdgeVirtual:    "virtual",
}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// cacheHitLatency is the pipelined L1 hit latency; access latencies above
// it indicate misses and are attributed to the cache as a bottleneck.
const cacheHitLatency = 2

// VertexID addresses a vertex as seq*NumStages + stage.
type VertexID int32

// Vertex returns the ID for (seq, stage).
func Vertex(seq int, st pipetrace.Stage) VertexID {
	return VertexID(seq*pipetrace.NumStages + int(st))
}

// Seq extracts the instruction sequence number.
func (v VertexID) Seq() int { return int(v) / pipetrace.NumStages }

// Stage extracts the pipeline stage.
func (v VertexID) Stage() pipetrace.Stage {
	return pipetrace.Stage(int(v) % pipetrace.NumStages)
}

// Edge is one DEG dependence.
type Edge struct {
	From, To VertexID
	Kind     EdgeKind
	Res      uarch.Resource // attribution target (ResNone for base edges)
	Delay    int64          // actual time interval t(To) - t(From)
	Cost     int64          // DP cost (Section 4.2)
}

// Graph is the induced DEG of one microexecution — or, for the windowed
// analyzer (AnalyzeWindowed), of one window of it, with vertex IDs local to
// the window so arbitrarily long traces stay within the int32 packing.
type Graph struct {
	Trace *pipetrace.Trace
	Edges []Edge

	// base is the global sequence number of local vertex seq 0. Whole-trace
	// graphs have base 0.
	base int

	// flags holds one byte of flag bits (flagTouched, ...) per dense
	// VertexID; its length is the graph's vertex-ID space.
	flags []uint8
	// Incoming-edge index in compressed sparse row form: v's incoming
	// edges are Edges[inIdx[inOff[v]:inOff[v+1]]], in Edges order.
	inOff []int32
	inIdx []int32

	// Statistics.
	NumVertices int
	EdgesByKind [NumEdgeKinds]int
	// SkewedAnchors counts the distinct (vertex, start) anchors feeding the
	// virtual-edge rules.
	SkewedAnchors int

	// Defensive-drop counters: edges addEdge refused to create. On a trace
	// that passes pipetrace validation both must stay zero (the simulator
	// invariants test asserts this); non-zero values indicate trace
	// corruption and are surfaced through the evaluator's telemetry rather
	// than vanishing silently.
	DroppedNoStamp  int // an endpoint's stage never happened
	DroppedBackward int // the edge would run backward in time
	// ClippedDeps counts dependence annotations whose producer precedes the
	// window's context base. Whole-trace builds always see zero; windowed
	// builds clip the rare producer older than the overlap margin.
	ClippedDeps int
}

// Dropped is the total defensively dropped edge count (trace-corruption
// indicator; window-context clipping is structural and counted separately).
func (g *Graph) Dropped() int { return g.DroppedNoStamp + g.DroppedBackward }

// time returns the stamp of a vertex.
func (g *Graph) time(v VertexID) int64 {
	return g.Trace.Records[g.base+v.Seq()].Stamp[v.Stage()]
}

// Options tunes graph construction.
type Options struct {
	// MaxVirtualScan bounds the candidate scan for virtual-edge rules.
	// Zero means the default (64).
	MaxVirtualScan int
}

// Per-vertex flags of a build.
const (
	flagTouched uint8 = 1 << iota // endpoint of at least one edge
	flagStart                     // start of a skewed edge: a virtual-edge target
	flagEnd                       // end of a skewed edge
)

// anchor is one endpoint of a skewed edge — a participant in the induced
// DEG's virtual-edge rules — with its stamp and instruction sequence.
type anchor struct {
	t   int64
	v   VertexID
	seq int32
}

// compareAnchors orders anchors by (time, VertexID), which is the
// (time, seq, stage) topological order because a VertexID is
// seq*NumStages+stage.
func compareAnchors(a, b anchor) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// Build constructs the induced DEG from a pipeline trace. The graph owns
// its storage.
func Build(tr *pipetrace.Trace, opts Options) (*Graph, error) {
	g := &Graph{}
	if err := buildInto(g, tr, opts, 0, len(tr.Records), new(buffers)); err != nil {
		return nil, err
	}
	return g, nil
}

// buildInto constructs the induced DEG over records [base, end) into the
// zeroed graph g, with vertex IDs local to base. The graph's slices come
// from b, so repeated builds reuse their allocations and the graph is only
// valid until b's next build. Dependence annotations reaching back before
// base are clipped and counted (whole-trace builds pass base 0 and never
// clip).
func buildInto(g *Graph, tr *pipetrace.Trace, opts Options, base, end int, b *buffers) error {
	nRecs := end - base
	if nRecs <= 0 {
		return fmt.Errorf("deg: empty trace")
	}
	if opts.MaxVirtualScan <= 0 {
		opts.MaxVirtualScan = 64
	}
	if nRecs > (math.MaxInt32-pipetrace.NumStages+1)/pipetrace.NumStages {
		// VertexID is an int32 of seq*NumStages+stage; IDs are local to the
		// build range, so only this range — not the whole trace — must fit.
		return fmt.Errorf("deg: trace of %d instructions exceeds the %d-instruction graph limit",
			nRecs, (math.MaxInt32-pipetrace.NumStages+1)/pipetrace.NumStages)
	}
	g.Trace = tr
	g.base = base
	recs := tr.Records[base:end]

	// Producer annotations are global sequence numbers; records sit at
	// index Seq - seq0 in tr.Records. Batch traces have seq0 == 0 (index
	// equals sequence number); the stream analyzer's sliding buffer starts
	// at whatever sequence is still retained.
	seq0 := tr.Records[0].Seq

	// Reserve the edge list up front: each pipeline hop and dependence
	// annotation adds at most one edge, and the virtual edges stay under
	// two per skewed edge in practice (append absorbs any excess). A fresh
	// build then allocates its edges once instead of growing them.
	bound := 0
	for i := range recs {
		r := &recs[i]
		skewed := len(r.ResourceDeps) + len(r.DataProducers)
		for _, p := range [...]int{r.FUProducer, r.PortProducer, r.MispredictFrom} {
			if p >= 0 {
				skewed++
			}
		}
		bound += pipetrace.NumStages - 1 + 3*skewed
	}
	g.Edges = slices.Grow(b.edges[:0], bound)

	total := nRecs * pipetrace.NumStages
	b.flags = grow(b.flags, total)
	clear(b.flags)
	g.flags = b.flags
	// inOff counts in-degrees until the edges are complete, then becomes
	// the CSR offsets.
	b.inOff = grow(b.inOff, total+1)
	clear(b.inOff)
	g.inOff = b.inOff
	// Skewed-edge anchors for the induced DEG, one per vertex in order of
	// first appearance, and the virtual-edge targets among them. The
	// start/end flags dedup them: a vertex shared by several skewed edges
	// contributes one anchor, not one per edge.
	anchors, targets := b.anchors[:0], b.targets[:0]

	touch := func(v VertexID) {
		if g.flags[v]&flagTouched == 0 {
			g.flags[v] |= flagTouched
			g.NumVertices++
		}
	}
	push := func(e Edge) {
		g.Edges = append(g.Edges, e)
		g.EdgesByKind[e.Kind]++
		g.inOff[e.To]++
	}

	// addEdge adds the edge between the local (sequence, stage) endpoints
	// and returns their stamps, or ok=false when it was dropped.
	addEdge := func(fs int, fst pipetrace.Stage, ts int, tst pipetrace.Stage, kind EdgeKind, res uarch.Resource) (df, dt int64, ok bool) {
		df, dt = recs[fs].Stamp[fst], recs[ts].Stamp[tst]
		if df == pipetrace.NoStamp || dt == pipetrace.NoStamp {
			g.DroppedNoStamp++
			return 0, 0, false
		}
		delay := dt - df
		if delay < 0 {
			g.DroppedBackward++
			return 0, 0, false // defensive: never create a backward edge
		}
		var cost int64
		if kind == EdgeResource || kind == EdgeFU || kind == EdgeMispredict {
			cost = delay
		}
		from, to := Vertex(fs, fst), Vertex(ts, tst)
		push(Edge{From: from, To: to, Kind: kind, Res: res, Delay: delay, Cost: cost})
		touch(from)
		touch(to)
		return df, dt, true
	}

	addAnchor := func(seq int, st pipetrace.Stage, t int64, flag uint8) {
		v := Vertex(seq, st)
		f := g.flags[v]
		if f&flag != 0 {
			return
		}
		g.flags[v] = f | flag
		g.SkewedAnchors++
		a := anchor{t: t, v: v, seq: int32(seq)}
		if f&(flagStart|flagEnd) == 0 {
			anchors = append(anchors, a)
		}
		if flag == flagStart {
			targets = append(targets, a)
		}
	}

	addSkewed := func(fs int, fst pipetrace.Stage, ts int, tst pipetrace.Stage, kind EdgeKind, res uarch.Resource) {
		if df, dt, ok := addEdge(fs, fst, ts, tst, kind, res); ok {
			addAnchor(fs, fst, df, flagStart)
			addAnchor(ts, tst, dt, flagEnd)
		}
	}

	// clip drops a producer annotation that precedes the build range;
	// toLocal maps a surviving global producer sequence to the build
	// range's local vertex sequence.
	clip := func(producer int) bool {
		if producer-seq0 >= base {
			return false
		}
		g.ClippedDeps++
		return true
	}
	toLocal := func(producer int) int { return producer - seq0 - base }

	for i := range recs {
		rec := &recs[i]
		// Horizontal pipeline chain. Attribution of base latencies: the
		// I$ response edge attributes to ICache and the load access edge
		// to DCache; remaining hops are unattributed pipeline progress.
		prev := pipetrace.SF1
		for s := pipetrace.SF2; s < pipetrace.Stage(pipetrace.NumStages); s++ {
			if !rec.HasStage(s) {
				continue
			}
			res := uarch.ResNone
			switch {
			case prev == pipetrace.SF1 && s == pipetrace.SF2:
				// The pipelined hit latency is intrinsic; only the miss
				// portion marks the I$ as a bottleneck.
				if rec.ICacheLat > cacheHitLatency {
					res = uarch.ResICache
				}
			case prev == pipetrace.SM && s == pipetrace.SP:
				if rec.DCacheLat > cacheHitLatency {
					res = uarch.ResDCache
				}
			case prev == pipetrace.SF2 && s == pipetrace.SF,
				prev == pipetrace.SF && s == pipetrace.SDC,
				prev == pipetrace.SR && s == pipetrace.SDP:
				// Fetch-buffer drain, fetch-queue and dispatch delays:
				// front-end width/buffer pressure.
				res = uarch.ResFrontend
			}
			addEdge(i, prev, i, s, EdgePipeline, res)
			prev = s
		}

		// Hardware resource dependencies (rename to rename).
		for _, rd := range rec.ResourceDeps {
			if clip(rd.Producer) {
				continue
			}
			addSkewed(toLocal(rd.Producer), pipetrace.SR, i, pipetrace.SR, EdgeResource, rd.Resource)
		}
		// Functional unit and port contention (issue to issue).
		if rec.FUProducer >= 0 && !clip(rec.FUProducer) {
			addSkewed(toLocal(rec.FUProducer), pipetrace.SI, i, pipetrace.SI, EdgeFU, rec.FURes)
		}
		if rec.PortProducer >= 0 && !clip(rec.PortProducer) {
			addSkewed(toLocal(rec.PortProducer), pipetrace.SI, i, pipetrace.SI, EdgeFU, uarch.ResRdWrPort)
		}
		// True data dependence.
		for _, p := range rec.DataProducers {
			if clip(p) {
				continue
			}
			addSkewed(toLocal(p), pipetrace.SI, i, pipetrace.SI, EdgeData, uarch.ResRawDep)
		}
		// Misprediction dependence.
		if rec.MispredictFrom >= 0 && !clip(rec.MispredictFrom) {
			addSkewed(toLocal(rec.MispredictFrom), pipetrace.SP, i, pipetrace.SF1, EdgeMispredict, uarch.ResBranchPred)
		}
	}

	// Induced DEG: virtual edges. Candidate targets are skewed-edge start
	// vertices; every anchor connects to (Rule 1) the target whose time is
	// closest after its own, and (Rule 2) the target whose instruction
	// sequence is closest after its own. Targets come strictly after the
	// anchor in topological order, so no virtual edge is a self-loop or
	// runs backward, and one anchor per vertex emits each edge once: a
	// vertex's start and end anchors share one order and so one pair of
	// targets.
	slices.SortFunc(targets, compareAnchors)
	addVirtual := func(a, t anchor) {
		push(Edge{From: a.v, To: t.v, Kind: EdgeVirtual, Res: uarch.ResNone, Delay: t.t - a.t})
	}
	for _, a := range anchors {
		// Rule 1: binary search for the first target strictly after a.
		lo, hi := 0, len(targets)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if compareAnchors(a, targets[m]) < 0 {
				hi = m
			} else {
				lo = m + 1
			}
		}
		if lo == len(targets) {
			continue
		}
		best := targets[lo]
		addVirtual(a, best)
		// Rule 2: among the next few targets, closest sequence.
		bestSeq, bestDist := best, seqDist(a.seq, best.seq)
		for _, t := range targets[lo+1 : min(lo+opts.MaxVirtualScan, len(targets))] {
			if d := seqDist(a.seq, t.seq); d < bestDist {
				bestSeq, bestDist = t, d
			}
		}
		if bestSeq.v != best.v {
			addVirtual(a, bestSeq)
		}
	}

	// Turn the in-degree counts into CSR offsets: an inclusive prefix sum
	// leaves inOff[v] at the end of v's run, and scattering the edges in
	// reverse walks it back to the start while keeping each run in Edges
	// order — the order the DP's tie-breaking depends on.
	var sum int32
	for v := 0; v < total; v++ {
		sum += g.inOff[v]
		g.inOff[v] = sum
	}
	g.inOff[total] = sum
	b.inIdx = grow(b.inIdx, len(g.Edges))
	g.inIdx = b.inIdx
	for i := len(g.Edges) - 1; i >= 0; i-- {
		to := g.Edges[i].To
		g.inOff[to]--
		g.inIdx[g.inOff[to]] = int32(i)
	}

	// Hand the (possibly reallocated) slices back so the next build reuses
	// their grown capacity.
	b.edges = g.Edges
	b.anchors = anchors
	b.targets = targets
	return nil
}

func seqDist(a, b int32) int32 {
	if a > b {
		return a - b
	}
	return b - a
}

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }
