// Simulator hot-path benchmarks: the bench-sim / profile-sim Makefile
// targets run exactly these. BenchmarkSimFull measures the steady-state DSE
// configuration — pooled trace storage recycled between runs, all DEG
// annotations recorded — and BenchmarkSimLite the probe-lite path that
// skips annotation recording. BENCH_sim.json records the before/after
// numbers for the allocation-free rewrite.
//
//	make bench-sim       # both benchmarks, -benchmem
//	make profile-sim     # CPU profile of BenchmarkSimFull → sim.pprof
//
// BenchmarkCoreSetup measures what one simulation pays before its first
// instruction: building a core (ooo.New) against resetting a released one
// (ooo.Acquire); BENCH_sim.json's "reuse" section records it.
package archexplorer

import (
	"testing"

	"archexplorer/internal/conformance"
	"archexplorer/internal/isa"
	"archexplorer/internal/ooo"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// benchStream is the 20k-instruction 458.sjeng prefix every simulator
// benchmark runs over.
func benchStream(b *testing.B) []isa.Inst {
	b.Helper()
	p, err := workload.ByName("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, 20000)
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

func benchSim(b *testing.B, lite bool) {
	stream := benchStream(b)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := ooo.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var err2 error
		var tr interface{ Release() }
		if lite {
			tr, _, err2 = core.RunLite(stream)
		} else {
			tr, _, err2 = core.Run(stream)
		}
		if err2 != nil {
			b.Fatal(err2)
		}
		tr.Release()
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimFull is the steady-state full-fidelity simulation: trace
// buffers recycle through the pool, annotations are recorded and interned
// into the trace arenas.
func BenchmarkSimFull(b *testing.B) { benchSim(b, false) }

// BenchmarkSimLite is the probe-lite variant: identical timing model, no
// annotation recording (what EvaluateBatch(..., withDEG=false) runs).
func BenchmarkSimLite(b *testing.B) { benchSim(b, true) }

// BenchmarkCoreSetup is the per-simulation core setup over 64 random Table
// 4 configs (fixed seed), cycled so consecutive cores differ the way a
// campaign's do: new builds each core from scratch, reuse resets the one
// the previous iteration released.
func BenchmarkCoreSetup(b *testing.B) {
	gen := conformance.NewGen(1)
	cfgs := make([]uarch.Config, 64)
	for i := range cfgs {
		cfgs[i] = gen.Config()
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ooo.New(cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core, err := ooo.Acquire(cfgs[i%len(cfgs)])
			if err != nil {
				b.Fatal(err)
			}
			core.Release()
		}
	})
}
