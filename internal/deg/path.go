package deg

import (
	"fmt"
	"slices"
	"sort"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// CriticalPath is the output of Algorithm 1: the maximum-cost chain through
// the induced DEG, which serializes the overlapping events that matter for
// the overall runtime.
type CriticalPath struct {
	// Vertices of the path in execution order.
	Vertices []VertexID
	// Edges[i] connects Vertices[i] to Vertices[i+1].
	Edges []Edge
	// Cost is the DP objective: total resource/misprediction delay.
	Cost int64
	// Span is the wall-clock interval the path's edges cover.
	Span int64
}

// countSortSpan bounds the counting sort's time range in units of the
// vertex count; wider ranges sort packed keys instead.
const countSortSpan = 4

// topoOrder returns verts — ascending VertexIDs, stamped times[i] — in
// (time, VertexID) order, which equals the (time, seq, stage) topological
// order because a VertexID is seq*NumStages+stage. A stable counting sort
// on the stamp, offset by the minimum, yields that order in
// O(V + time range): equal stamps keep their ascending-ID input order.
// Time ranges wider than countSortSpan·V sort (time offset, vertex) keys
// packed into one uint64, and ranges of 1<<32 cycles or more — where the
// packing would overflow — compare the two keys explicitly. The result
// lives in b.
func topoOrder(verts []VertexID, times []int64, b *buffers) []VertexID {
	minT, maxT := times[0], times[0]
	for _, t := range times {
		minT, maxT = min(minT, t), max(maxT, t)
	}
	b.order = grow(b.order, len(verts))
	out := b.order
	switch span := uint64(maxT - minT); {
	case span < countSortSpan*uint64(len(verts)):
		b.count = grow(b.count, int(span)+1)
		count := b.count
		clear(count)
		for _, t := range times {
			count[t-minT]++
		}
		var sum int32
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for i, v := range verts {
			k := times[i] - minT
			out[count[k]] = v
			count[k]++
		}
	case span < 1<<32:
		b.keys = grow(b.keys, len(verts))
		keys := b.keys
		for i, v := range verts {
			keys[i] = uint64(times[i]-minT)<<32 | uint64(uint32(v))
		}
		slices.Sort(keys)
		for i, k := range keys {
			out[i] = VertexID(uint32(k))
		}
	default:
		pairs := make([]anchor, len(verts))
		for i, v := range verts {
			pairs[i] = anchor{t: times[i], v: v}
		}
		slices.SortFunc(pairs, compareAnchors)
		for i, p := range pairs {
			out[i] = p.v
		}
	}
	return out
}

// Construct runs Algorithm 1 (dynamic-programming longest path in
// topological order). Vertices without predecessors start at cost zero
// (line 8 of the paper's pseudocode acts as a virtual super-source); the
// path is reconstructed backwards from the maximum-cost vertex, which acts
// as the virtual super-sink. Runtime not covered by the path telescopes
// into the report's Base share. The path owns its storage.
func (g *Graph) Construct() (*CriticalPath, error) {
	return g.constructInto(new(buffers))
}

// constructInto is Construct on b's scratch arrays: the topological order,
// the DP tables and the reconstructed path all live in b, so the returned
// path is only valid until b's next use. The d/parent tables need no
// reinitialisation between uses — every sorted vertex's entry is written
// before any read.
func (g *Graph) constructInto(b *buffers) (*CriticalPath, error) {
	if len(g.Edges) == 0 {
		return nil, fmt.Errorf("deg: graph has no edges")
	}

	// Gather the vertices in ascending ID order with their stamps, walking
	// records and stages so no ID is divided back apart. len(g.flags) is
	// the dense vertex-ID space of this (possibly windowed) graph.
	total := len(g.flags)
	verts := slices.Grow(b.verts[:0], g.NumVertices)
	times := slices.Grow(b.times[:0], g.NumVertices)
	recs := g.Trace.Records[g.base:]
	for seq := 0; seq < total/pipetrace.NumStages; seq++ {
		v0 := seq * pipetrace.NumStages
		stamps := &recs[seq].Stamp
		for st, f := range g.flags[v0 : v0+pipetrace.NumStages] {
			if f&flagTouched != 0 {
				verts = append(verts, VertexID(v0+st))
				times = append(times, stamps[st])
			}
		}
	}
	b.verts, b.times = verts, times
	order := topoOrder(verts, times, b)

	b.d = grow(b.d, total)
	b.parent = grow(b.parent, total)
	d, parent := b.d, b.parent // parent: incoming edge index, -1 none
	var bestV VertexID
	var bestD int64 = -1
	for _, v := range order {
		var dv int64
		pe := int32(-1)
		for _, ei := range g.inIdx[g.inOff[v]:g.inOff[v+1]] {
			e := &g.Edges[ei]
			cand := d[e.From] + e.Cost
			if cand > dv || (cand == dv && pe < 0) {
				dv = cand
				pe = ei
			}
		}
		d[v] = dv
		parent[v] = pe
		if dv > bestD {
			bestD, bestV = dv, v
		}
	}

	// Reconstruct backwards from the super-sink.
	redges, rverts := b.redges[:0], b.rverts[:0]
	v := bestV
	for {
		rverts = append(rverts, v)
		pe := parent[v]
		if pe < 0 {
			break
		}
		redges = append(redges, g.Edges[pe])
		v = g.Edges[pe].From
	}
	b.redges, b.rverts = redges, rverts
	// Reverse into execution order.
	slices.Reverse(rverts)
	slices.Reverse(redges)

	cp := &CriticalPath{Vertices: rverts, Edges: redges, Cost: bestD}
	if len(rverts) > 0 {
		cp.Span = g.time(rverts[len(rverts)-1]) - g.time(rverts[0])
	}
	return cp, nil
}

// Report is the bottleneck analysis output: each resource's contribution to
// the total runtime (Equation 1). Contributions are fractions of the
// critical path length L (the simulated runtime); Base is the share not
// attributed to any reassignable resource (pipeline progress, virtual-edge
// gaps, and the path's uncovered prefix/suffix).
type Report struct {
	L       int64 // total runtime in cycles
	Contrib [uarch.NumResources]float64
	// DelayByRes holds the absolute attributed cycles per resource.
	DelayByRes [uarch.NumResources]int64
	Base       float64
	// BaseClamped records that the raw Base came out negative (attributed
	// delay exceeded L, e.g. a truncated trace whose Cycles undercounts the
	// path) and was clamped to zero instead of being reported as a silently
	// negative fraction.
	BaseClamped bool
	// EdgeCount counts critical-path edges attributed per resource.
	EdgeCount [uarch.NumResources]int
}

// Analyze builds the graph, constructs the critical path, and attributes
// every path edge's delay to its resource (Equation 1).
func Analyze(tr *pipetrace.Trace, opts Options) (*Report, *Graph, *CriticalPath, error) {
	g, err := Build(tr, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cp, err := g.Construct()
	if err != nil {
		return nil, nil, nil, err
	}
	rep := Attribute(tr, cp)
	return rep, g, cp, nil
}

// Attribute computes Equation 1 over a constructed critical path.
//
// When the trace carries no cycle count (tr.Cycles <= 0) the denominator
// falls back to the critical path's wall-clock Span rather than 1 — an L of
// one cycle would report every resource at thousands of percent. If the
// attributed delay still exceeds L (truncated traces whose Cycles
// undercounts the path), Base is clamped to zero and the report flags it
// via BaseClamped instead of going silently negative.
func Attribute(tr *pipetrace.Trace, cp *CriticalPath) *Report {
	rep := &Report{L: tr.Cycles}
	if rep.L <= 0 {
		rep.L = cp.Span
	}
	if rep.L <= 0 {
		rep.L = 1
	}
	var attributed int64
	for _, e := range cp.Edges {
		if e.Res == uarch.ResNone {
			continue
		}
		rep.DelayByRes[e.Res] += e.Delay
		rep.EdgeCount[e.Res]++
		attributed += e.Delay
	}
	for r := range rep.Contrib {
		rep.Contrib[r] = float64(rep.DelayByRes[r]) / float64(rep.L)
	}
	rep.Base = 1 - float64(attributed)/float64(rep.L)
	if rep.Base < 0 {
		rep.Base = 0
		rep.BaseClamped = true
	}
	return rep
}

// Top returns the resources ordered by decreasing contribution, skipping
// zero contributors.
func (r *Report) Top() []uarch.Resource {
	var out []uarch.Resource
	for _, res := range uarch.Resources() {
		if r.Contrib[res] > 0 {
			out = append(out, res)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return r.Contrib[out[i]] > r.Contrib[out[j]]
	})
	return out
}

// Merge computes the weighted average report across workloads
// (Equation 2). Weights must match reports in length; they are normalised
// internally.
//
// Contrib is exactly Equation 2: the weighted mean of each workload's
// contribution *fractions* Σᵢ wᵢ·(Delayᵢ[r]/Lᵢ). The absolute fields L and
// DelayByRes are weighted means of the inputs' absolute cycles (rounded to
// the nearest cycle), so a merge of identical reports reproduces the input
// rather than summing it. Because a mean of ratios is not the ratio of
// means, Contrib[r] equals DelayByRes[r]/L only when every input has the
// same L; in general the two views answer different questions (per-workload
// share of runtime versus cycles on a reference-length run) and Contrib is
// the one the explorer steers on. EdgeCount stays a plain sum — it is a
// diagnostic tally of critical-path edges across all inputs.
func Merge(reports []*Report, weights []float64) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("deg: no reports to merge")
	}
	if weights != nil && len(weights) != len(reports) {
		return nil, fmt.Errorf("deg: %d weights for %d reports", len(weights), len(reports))
	}
	var wsum float64
	if weights == nil {
		weights = make([]float64, len(reports))
		for i := range weights {
			weights[i] = 1
		}
	}
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("deg: negative weight %v", w)
		}
		wsum += w
	}
	if wsum == 0 {
		return nil, fmt.Errorf("deg: zero total weight")
	}
	out := &Report{}
	var lMean float64
	var delayMean [uarch.NumResources]float64
	for i, rep := range reports {
		w := weights[i] / wsum
		lMean += w * float64(rep.L)
		out.Base += w * rep.Base
		out.BaseClamped = out.BaseClamped || (w > 0 && rep.BaseClamped)
		for r := range rep.Contrib {
			out.Contrib[r] += w * rep.Contrib[r]
			delayMean[r] += w * float64(rep.DelayByRes[r])
			out.EdgeCount[r] += rep.EdgeCount[r]
		}
	}
	out.L = int64(lMean + 0.5)
	for r := range delayMean {
		out.DelayByRes[r] = int64(delayMean[r] + 0.5)
	}
	return out, nil
}

// String renders the report as the paper's bottleneck analysis table.
func (r *Report) String() string {
	clamp := ""
	if r.BaseClamped {
		clamp = " [base clamped: attributed delay exceeded L]"
	}
	out := fmt.Sprintf("bottleneck report (L=%d cycles, base=%.1f%%%s)\n", r.L, 100*r.Base, clamp)
	for _, res := range r.Top() {
		out += fmt.Sprintf("  %-12s %6.2f%%  (%d edges, %d cycles)\n",
			res, 100*r.Contrib[res], r.EdgeCount[res], r.DelayByRes[res])
	}
	return out
}
