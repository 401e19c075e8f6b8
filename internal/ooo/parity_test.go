package ooo

import (
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// parityWorkloads are the four invariant workloads whose simulator output is
// pinned bit-for-bit across hot-path rewrites.
var parityWorkloads = []string{"458.sjeng", "429.mcf", "619.lbm_s", "453.povray"}

const parityTraceLen = 6000

// tightConfig stresses every capacity pool so the free-event heaps stay full
// and their pop order (including tie handling between equal release times)
// shapes the producer annotations.
func tightConfig() uarch.Config {
	cfg := uarch.Baseline()
	cfg.ROBEntries = 32
	cfg.IQEntries = 8
	cfg.LQEntries = 8
	cfg.SQEntries = 8
	cfg.IntRF = 40
	cfg.FpRF = 40
	return cfg
}

// traceFingerprint is the exported Fingerprint under the name the pinned
// seed values were captured with; the seed-parity tests below replay the
// captured values, so any drift in the exported hash layout fails them.
func traceFingerprint(tr *pipetrace.Trace, st *Stats) uint64 {
	return Fingerprint(tr, st)
}

// seedFingerprints pins the exact output of the pre-optimization simulator
// (map-based FU lookup, container/heap pools, per-instruction annotation
// allocations) on the four invariant workloads. They were captured from the
// seed core before the hot-path rewrite and must never change: the
// optimization is required to be bit-exact, in both timing and every DEG
// annotation.
var seedFingerprints = map[string]map[string]uint64{
	"baseline": {
		"458.sjeng":  0xec4dd9ccad200458,
		"429.mcf":    0x26b449dff2761200,
		"619.lbm_s":  0x57f96513b030ba8a,
		"453.povray": 0xae65330f5177f181,
	},
	"tight": {
		"458.sjeng":  0xca8ab2e1bdab75aa,
		"429.mcf":    0xa488ab4c74bb70ad,
		"619.lbm_s":  0x6ea9af16393e9448,
		"453.povray": 0xe48880acfda92ab0,
	},
}

func runParityWorkload(t *testing.T, name string, cfg uarch.Config, lite bool) (*pipetrace.Trace, *Stats) {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, parityTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr *pipetrace.Trace
	var st *Stats
	if lite {
		tr, st, err = core.RunLite(stream)
	} else {
		tr, st, err = core.Run(stream)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

// TestSeedParity asserts the optimized simulator reproduces the seed
// simulator's output bit-for-bit on every invariant workload, at both the
// Table 1 baseline and a capacity-starved configuration that keeps the
// resource pools saturated.
func TestSeedParity(t *testing.T) {
	configs := map[string]uarch.Config{
		"baseline": uarch.Baseline(),
		"tight":    tightConfig(),
	}
	for cfgName, cfg := range configs {
		for _, name := range parityWorkloads {
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				tr, st := runParityWorkload(t, name, cfg, false)
				got := traceFingerprint(tr, st)
				want := seedFingerprints[cfgName][name]
				if got != want {
					t.Errorf("fingerprint drifted from seed: got %#x, want %#x\n"+
						"the hot path must be bit-exact; if a deliberate model change "+
						"caused this, re-pin after verifying stamps and annotations by hand", got, want)
				}
			})
		}
	}
}

// floorConfig sits every capacity pool and the fetch queue at its
// Validate minimum, so each pool pops on nearly every allocation.
func floorConfig() uarch.Config {
	cfg := uarch.Baseline()
	cfg.FetchQueueUops = 1
	cfg.ROBEntries = 4
	cfg.IQEntries = 2
	cfg.LQEntries = 2
	cfg.SQEntries = 2
	cfg.IntRF = 34
	cfg.FpRF = 34
	return cfg
}

// TestLiteParity asserts probe-lite mode changes only what it promises to:
// stage stamps, latencies, and Stats are byte-identical to a full run, while
// the DEG annotations (resource deps, producers, mispredict blame) are
// elided entirely. Lite mode runs its back-end pools as sorted rings and
// full mode as heaps, so the configs include capacity-starved ones where
// those pools pop, and the test fails if some pool never stalls rename
// anywhere in the set.
func TestLiteParity(t *testing.T) {
	configs := []struct {
		name string
		cfg  uarch.Config
	}{{"baseline", uarch.Baseline()}, {"tight", tightConfig()}, {"floor", floorConfig()}}
	var stalls [uarch.NumResources]uint64
	for _, name := range parityWorkloads {
		t.Run(name, func(t *testing.T) {
			for _, c := range configs {
				t.Run(c.name, func(t *testing.T) {
					full, fullSt := runParityWorkload(t, name, c.cfg, false)
					lite, liteSt := runParityWorkload(t, name, c.cfg, true)
					for r, n := range liteSt.RenameStalls {
						stalls[r] += n
					}

					if *fullSt != *liteSt {
						t.Errorf("stats diverge between full and lite:\nfull %+v\nlite %+v", *fullSt, *liteSt)
					}
					if full.Cycles != lite.Cycles {
						t.Errorf("cycles diverge: full %d, lite %d", full.Cycles, lite.Cycles)
					}
					if len(full.Records) != len(lite.Records) {
						t.Fatalf("record count diverges: full %d, lite %d", len(full.Records), len(lite.Records))
					}
					for i := range full.Records {
						f, l := &full.Records[i], &lite.Records[i]
						if f.Stamp != l.Stamp {
							t.Fatalf("rec %d: stamps diverge\nfull %v\nlite %v", i, f.Stamp, l.Stamp)
						}
						if f.ICacheLat != l.ICacheLat || f.DCacheLat != l.DCacheLat ||
							f.ExecLat != l.ExecLat || f.Mispredicted != l.Mispredicted {
							t.Fatalf("rec %d: latencies/outcomes diverge", i)
						}
						if len(l.ResourceDeps) != 0 || len(l.DataProducers) != 0 {
							t.Fatalf("rec %d: lite run recorded annotations: deps=%v prods=%v",
								i, l.ResourceDeps, l.DataProducers)
						}
						if l.FUProducer != -1 || l.PortProducer != -1 || l.MispredictFrom != -1 {
							t.Fatalf("rec %d: lite run recorded producer blame: fu=%d port=%d bp=%d",
								i, l.FUProducer, l.PortProducer, l.MispredictFrom)
						}
					}
				})
			}
		})
	}
	for _, r := range []uarch.Resource{uarch.ResROB, uarch.ResIQ, uarch.ResLQ, uarch.ResSQ, uarch.ResIntRF, uarch.ResFpRF} {
		if stalls[r] == 0 {
			t.Errorf("no config stalled rename on %v: the %v pool never popped, so its parity is untested", r, r)
		}
	}
}

// TestCoreRunsOneMode pins that a core refuses to switch recording mode
// until it is reset: its pools carry state between runs, and the lite
// rings keep no owners to continue in the full-mode heaps (or the
// reverse). A reset core starts over and may run either mode.
func TestCoreRunsOneMode(t *testing.T) {
	stream := batchStreamFor(t, "429.mcf")
	sink := func(c *pipetrace.Chunk) error { c.Release(); return nil }
	full, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := full.Run(stream[:100])
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	if _, err := full.RunStream(stream[100:200], 0, sink); err != nil {
		t.Fatalf("RunStream after Run (both full mode): %v", err)
	}
	if tr, _, err := full.RunLite(stream[200:300]); err == nil || tr != nil {
		t.Error("RunLite on a core that ran full mode was accepted")
	}
	if _, err := full.reset(uarch.Baseline()); err != nil {
		t.Fatal(err)
	}
	if tr, _, err = full.RunLite(stream[:100]); err != nil {
		t.Fatalf("RunLite on a reset core that ran full mode: %v", err)
	}
	tr.Release()

	lite, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if tr, _, err = lite.RunLite(stream[:100]); err != nil {
		t.Fatal(err)
	}
	tr.Release()
	if tr, _, err := lite.Run(stream[100:200]); err == nil || tr != nil {
		t.Error("Run on a core that ran lite mode was accepted")
	}
	if _, err := lite.RunStream(stream[100:200], 0, sink); err == nil {
		t.Error("RunStream on a core that ran lite mode was accepted")
	}
	if _, err := lite.reset(tightConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := lite.RunStream(stream[:100], 0, sink); err != nil {
		t.Fatalf("RunStream on a reset core that ran lite mode: %v", err)
	}
}

// TestPooledTraceReuseDeterministic asserts releasing a trace back to the
// pool and running again yields the identical fingerprint — reused backing
// storage must be indistinguishable from fresh storage.
func TestPooledTraceReuseDeterministic(t *testing.T) {
	var want uint64
	for round := 0; round < 3; round++ {
		tr, st := runParityWorkload(t, "458.sjeng", tightConfig(), false)
		got := traceFingerprint(tr, st)
		if round == 0 {
			want = got
		} else if got != want {
			t.Fatalf("round %d: fingerprint %#x differs from first run %#x after pooled reuse",
				round, got, want)
		}
		tr.Release()
	}
}

// TestRunDoesNotMutateSharedStream pins the CachedTrace immutability
// contract: Core.Run and RunLite treat the instruction stream as read-only,
// because CachedTrace hands every caller — concurrent evaluator workers
// included — the same backing array.
func TestRunDoesNotMutateSharedStream(t *testing.T) {
	p, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, parityTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]isa.Inst, len(stream))
	copy(snapshot, stream)

	for _, lite := range []bool{false, true} {
		core, err := New(tightConfig())
		if err != nil {
			t.Fatal(err)
		}
		if lite {
			_, _, err = core.RunLite(stream)
		} else {
			_, _, err = core.Run(stream)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range stream {
			if stream[i] != snapshot[i] {
				t.Fatalf("lite=%v: Run mutated shared stream at index %d: %+v != %+v",
					lite, i, stream[i], snapshot[i])
			}
		}
	}
}
