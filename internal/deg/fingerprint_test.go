package deg_test

// Golden fingerprints of the DEG kernel's output. Table 2's tests pin edge
// counts on hand-built traces and the conformance engines compare the
// kernel against itself, so neither catches a kernel-wide change that
// shifts every report the same way. These pins hash every Report field and
// every Graph statistic over the conformance corpus configurations, so any
// change to the graph, the topological order, the DP's tie-breaking or the
// attribution shows up as a changed fingerprint.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"archexplorer/internal/conformance"
	"archexplorer/internal/deg"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// fingerprintConfigs is the corpus the pins cover: the baseline, the first
// random draws of the conformance generator, and every capacity-floor edge
// config.
func fingerprintConfigs() []uarch.Config {
	cfgs := []uarch.Config{uarch.Baseline()}
	gen := conformance.NewGen(1)
	for i := 0; i < 6; i++ {
		cfgs = append(cfgs, gen.Config())
	}
	return append(cfgs, conformance.EdgeConfigs()...)
}

type fpHash struct{ h hash.Hash64 }

func (f fpHash) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	f.h.Write(b[:])
}

func (f fpHash) f64(v float64) { f.i64(int64(math.Float64bits(v))) }

func (f fpHash) bool(v bool) {
	if v {
		f.i64(1)
	} else {
		f.i64(0)
	}
}

func (f fpHash) report(r *deg.Report) {
	f.i64(r.L)
	for i := range r.Contrib {
		f.f64(r.Contrib[i])
		f.i64(r.DelayByRes[i])
		f.i64(int64(r.EdgeCount[i]))
	}
	f.f64(r.Base)
	f.bool(r.BaseClamped)
}

func (f fpHash) graph(g *deg.Graph) {
	for _, n := range g.EdgesByKind {
		f.i64(int64(n))
	}
	f.i64(int64(g.NumVertices))
	f.i64(int64(g.SkewedAnchors))
	f.i64(int64(g.DroppedNoStamp))
	f.i64(int64(g.DroppedBackward))
	f.i64(int64(g.ClippedDeps))
}

func (f fpHash) windowStats(s *deg.WindowStats) {
	f.i64(int64(s.Windows))
	f.i64(int64(s.PeakEdges))
	f.i64(int64(s.PeakVertices))
	f.i64(int64(s.DroppedNoStamp))
	f.i64(int64(s.DroppedBackward))
	f.i64(int64(s.ClippedDeps))
}

func simulate(t *testing.T, cfg uarch.Config, name string, n int) *pipetrace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, n)
	if err != nil {
		t.Fatal(err)
	}
	core, err := ooo.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := core.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenFingerprints pins, per workload, one FNV-64a hash over every
// corpus config's whole-trace Analyze output (Report, Graph statistics and
// the critical path's cost and span) and one over AnalyzeWindowed at a
// quarter of the trace per window (Report and WindowStats). The pins were
// recorded from an independent implementation of the kernel (comparison
// sort, per-vertex in-edge lists, map-based dedup), so they check the
// kernel against more than itself; a change that keeps reports
// bit-identical keeps them.
func TestGoldenFingerprints(t *testing.T) {
	const n = 1200
	pins := []struct {
		workload        string
		whole, windowed uint64
	}{
		{"458.sjeng", 0xd63a7fe8f7086850, 0x54c86bfc20117042},
		{"429.mcf", 0x712b29abe492d005, 0x6b8b29c75c16dcd7},
		{"444.namd", 0x9654a4e14a73335c, 0x3611960ccb2eb893},
	}
	cfgs := fingerprintConfigs()
	for _, pin := range pins {
		whole, windowed := fpHash{fnv.New64a()}, fpHash{fnv.New64a()}
		for _, cfg := range cfgs {
			tr := simulate(t, cfg, pin.workload, n)
			rep, g, cp, err := deg.Analyze(tr, deg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			whole.report(rep)
			whole.graph(g)
			whole.i64(cp.Cost)
			whole.i64(cp.Span)
			whole.i64(int64(len(cp.Edges)))

			wrep, ws, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{Window: n / 4})
			if err != nil {
				t.Fatal(err)
			}
			windowed.report(wrep)
			windowed.windowStats(ws)
			tr.Release()
		}
		if got := whole.h.Sum64(); got != pin.whole {
			t.Errorf("%s whole-trace fingerprint %#x, want %#x", pin.workload, got, pin.whole)
		}
		if got := windowed.h.Sum64(); got != pin.windowed {
			t.Errorf("%s windowed fingerprint %#x, want %#x", pin.workload, got, pin.windowed)
		}
	}
}
