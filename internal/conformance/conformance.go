// Package conformance is the differential-testing harness over the
// simulator's execution engines and the bottleneck analyzers that consume
// them: the reference full-fidelity run (Core.Run), probe-lite
// (Core.RunLite), streaming (Core.RunStream), all three on recycled cores
// (ooo.Acquire after another config's run), the pooled whole-trace DEG
// kernel (deg.AnalyzeWindowed with no window), and parallel windowed DEG
// analysis (deg.AnalyzeWindowed with Workers > 1). All of them implement
// one timing-and-attribution model, so for any (config, stream) pair they
// must agree exactly; the package quantifies that over randomly drawn
// valid configurations.
//
// The oracle is the fingerprint family in internal/ooo: lite runs are
// compared to the reference through ooo.TimingFingerprint (the
// lite-preserved subset) and the chunked stream through
// ooo.ChunkedFingerprint against ooo.Fingerprint. Bottleneck reports are
// compared structurally — agreement of the traces' annotations is
// necessary but not sufficient for ArchExplorer, whose decisions consume
// the reports: the pooled kernel the evaluator runs must reproduce
// deg.Analyze's report on the reference trace, and the parallel windowed
// analyzer must reproduce the sequential windowed report bit for bit.
//
// When a draw disagrees, Shrink reduces the failing design point toward
// the baseline one lattice step at a time, so the reported counterexample
// is (locally) minimal and the offending parameter is usually legible
// straight from the diff against Baseline.
package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"

	"archexplorer/internal/deg"
	"archexplorer/internal/isa"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// Gen draws random valid design points from a space. Deterministic for a
// seed, so every corpus failure names the draw that reproduces it.
type Gen struct {
	Space *uarch.Space
	rng   *rand.Rand
}

// NewGen returns a seeded generator over the standard Table 4 space.
func NewGen(seed int64) *Gen {
	return &Gen{Space: uarch.StandardSpace(), rng: rand.New(rand.NewSource(seed))}
}

// Point draws a design point whose decoded config passes validation.
// Random points over the standard space are essentially always valid; the
// loop guards against value tables whose cross product admits degenerate
// corners.
func (g *Gen) Point() uarch.Point {
	for {
		pt := g.Space.Random(g.rng)
		if g.Space.Decode(pt).Validate() == nil {
			return pt
		}
	}
}

// Config draws a random valid configuration.
func (g *Gen) Config() uarch.Config { return g.Space.Decode(g.Point()) }

// Mismatch is one engine disagreement: the named engine's fingerprint
// diverged from the per-config reference run on this (config, workload).
type Mismatch struct {
	Engine    string // "lite", "stream", "reuse", "deg", "deg-par"
	Workload  string
	Config    uarch.Config
	Want, Got uint64 // reference and diverging fingerprints (0 for the deg engines)
}

// Error implements error.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("conformance: %s engine diverged on %s: fingerprint %#x, reference %#x\nconfig: %+v",
		m.Engine, m.Workload, m.Got, m.Want, m.Config)
}

// Check cross-checks every engine for each config over one instruction
// stream and returns the first disagreement as a *Mismatch (or the first
// operational error). nil means all engines agreed on every config.
func Check(stream []isa.Inst, wl string, cfgs []uarch.Config, withDEG bool) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("conformance: no configs to check")
	}
	for _, cfg := range cfgs {
		core, err := ooo.New(cfg)
		if err != nil {
			return err
		}
		tr, st, err := core.Run(stream)
		if err != nil {
			return err
		}
		err = checkOne(stream, wl, cfg, tr, st, withDEG)
		tr.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkOne compares cfg's engines against the reference run tr/st, the
// plain per-config full-fidelity simulation of cfg over stream.
func checkOne(stream []isa.Inst, wl string, cfg uarch.Config, tr *pipetrace.Trace, st *ooo.Stats, withDEG bool) error {
	ref := ooo.Fingerprint(tr, st)
	refTiming := ooo.TimingFingerprint(tr, st)

	liteCore, err := ooo.New(cfg)
	if err != nil {
		return err
	}
	gotLite, err := engineFingerprint(liteCore, "lite", stream)
	if err != nil {
		return err
	}
	if gotLite != refTiming {
		return &Mismatch{Engine: "lite", Workload: wl, Config: cfg, Want: refTiming, Got: gotLite}
	}

	streamCore, err := ooo.New(cfg)
	if err != nil {
		return err
	}
	gotStream, err := engineFingerprint(streamCore, "stream", stream)
	if err != nil {
		return err
	}
	if gotStream != ref {
		return &Mismatch{Engine: "stream", Workload: wl, Config: cfg, Want: ref, Got: gotStream}
	}

	if err := checkReuse(stream, wl, cfg, ref, refTiming); err != nil {
		return err
	}

	if withDEG {
		// The pooled whole-trace kernel the evaluator runs must reproduce
		// the unpooled reference analysis.
		refRep, _, _, err := deg.Analyze(tr, deg.Options{})
		if err != nil {
			return err
		}
		pooledRep, _, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(refRep, pooledRep) {
			return &Mismatch{Engine: "deg", Workload: wl, Config: cfg}
		}

		// Parallel windowed DEG analysis. Window at roughly a quarter of
		// the trace so the run genuinely spans several windows, with the
		// margin derived from the config's own reorder window — then the
		// 4-worker report and stats must be bit-identical to the
		// sequential windowed run on the same trace.
		window := max(1, len(tr.Records)/4)
		seq := deg.WindowOptions{Window: window, ReorderWindow: cfg.ROBEntries}
		seqRep, seqSt, err := deg.AnalyzeWindowed(tr, seq)
		if err != nil {
			return err
		}
		par := seq
		par.Workers = 4
		parRep, parSt, err := deg.AnalyzeWindowed(tr, par)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(parRep, seqRep) || !reflect.DeepEqual(parSt, seqSt) {
			return &Mismatch{Engine: "deg-par", Workload: wl, Config: cfg}
		}
	}
	return nil
}

// engineFingerprint runs one engine on core — "full" (Run), "lite"
// (RunLite) or "stream" (RunStream) — and returns the fingerprint that
// engine is compared by: Fingerprint, TimingFingerprint (lite records no
// annotations) or ChunkedFingerprint. Streamed chunks are retained until
// the stats (the hash preamble) are known, then released.
func engineFingerprint(core *ooo.Core, engine string, stream []isa.Inst) (uint64, error) {
	if engine != "stream" {
		run, fp := core.Run, ooo.Fingerprint
		if engine == "lite" {
			run, fp = core.RunLite, ooo.TimingFingerprint
		}
		tr, st, err := run(stream)
		if err != nil {
			return 0, err
		}
		defer tr.Release()
		return fp(tr, st), nil
	}
	var chunks []*pipetrace.Chunk
	defer func() {
		for _, c := range chunks {
			c.Release()
		}
	}()
	st, err := core.RunStream(stream, 0, func(c *pipetrace.Chunk) error {
		chunks = append(chunks, c)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ooo.ChunkedFingerprint(st.Cycles, st, func(hash func(*pipetrace.Record)) {
		for _, c := range chunks {
			for i := range c.Records {
				hash(&c.Records[i])
			}
		}
	}), nil
}

// reused counts the reuse engine's acquisitions that got back the core it
// had just released, so the tests can require that the engine really ran
// on recycled cores (the pool may always hand out a new one instead).
var reused atomic.Int64

// checkReuse is the reuse engine: cfg runs on cores recycled from other
// runs and must match the fresh-core references. The chain of runs changes
// mode lite→full, full→stream and full→lite, and the runs on cfg follow
// runs on dirtyConfig(cfg) — over the first quarter of the stream, enough
// to dirty every structure — so the L1 geometry and the issue ring size
// change under them too.
func checkReuse(stream []isa.Inst, wl string, cfg uarch.Config, ref, refTiming uint64) error {
	dirty, dirtStream := dirtyConfig(cfg), stream[:(len(stream)+3)/4]
	var last *ooo.Core
	for _, step := range []struct {
		cfg    uarch.Config
		engine string
		check  bool // compared against want; the dirtying runs are not
		want   uint64
	}{
		{dirty, "lite", false, 0},
		{cfg, "full", true, ref},
		{cfg, "stream", true, ref},
		{dirty, "full", false, 0},
		{cfg, "lite", true, refTiming},
	} {
		core, err := ooo.Acquire(step.cfg)
		if err != nil {
			return err
		}
		if core == last {
			reused.Add(1)
		}
		st := stream
		if !step.check {
			st = dirtStream
		}
		got, err := engineFingerprint(core, step.engine, st)
		core.Release()
		last = core
		if err != nil {
			return err
		}
		if step.check && got != step.want {
			return &Mismatch{Engine: "reuse", Workload: wl, Config: cfg, Want: step.want, Got: got}
		}
	}
	return nil
}

// dirtyConfig is the config the reuse engine interleaves with cfg: both L1s
// twice cfg's size, and a reorder window at the other end of the space, so
// the issue ring lands on another power of two (a ROB of 4 with one
// fetch-queue entry sizes it at its 4096-slot floor, below any cfg with a
// ROB over 64; a ROB of 512 sizes it at 65536, above any cfg with a ROB
// of 64 or less).
func dirtyConfig(cfg uarch.Config) uarch.Config {
	d := cfg
	d.ICacheKB *= 2
	d.DCacheKB *= 2
	if cfg.ROBEntries > 64 {
		d.ROBEntries, d.FetchQueueUops = 4, 1
	} else {
		d.ROBEntries = 512
	}
	return d
}

// Shrink greedily minimises a failing design point toward the space's
// baseline: move one parameter one lattice level toward the baseline point
// and keep any move that preserves the failure, until no single step does.
// The result is a locally minimal counterexample, so the offending
// parameters are legible from a diff against Baseline. The predicate is
// re-run on candidates only (never on pt itself), so callers pass a point
// they already know fails.
func Shrink(space *uarch.Space, pt uarch.Point, fails func(uarch.Point) bool) uarch.Point {
	base := space.Nearest(uarch.Baseline())
	for progress := true; progress; {
		progress = false
		for p := 0; p < uarch.NumParams; p++ {
			for pt[p] != base[p] {
				cand := pt
				if cand[p] > base[p] {
					cand[p]--
				} else {
					cand[p]++
				}
				if space.Decode(cand).Validate() != nil || !fails(cand) {
					break
				}
				pt = cand
				progress = true
			}
		}
	}
	return pt
}

// StrictCapacityParams are the pure window/register capacities of Table 4:
// ROB, issue queue, load/store queues, and the physical register files.
// Growing one only relaxes rename stalls — it admits instructions into
// flight sooner but never reorders anything already in flight — so under
// this timing model IPC is strictly monotonic in each of them. The
// metamorphic suite asserts that with zero tolerance.
func StrictCapacityParams() []uarch.Param {
	return []uarch.Param{
		uarch.ParamROB, uarch.ParamIQ, uarch.ParamLQ, uarch.ParamSQ,
		uarch.ParamIntRF, uarch.ParamFpRF,
	}
}

// FUParams are the functional-unit counts. Growth almost always helps, but
// an extra unit can change which ready instruction issues first, and the
// reordered memory operations then see different cache (LRU) and
// store-forwarding state — a second-order effect that occasionally costs a
// few cycles. Empirically (thousands of random grow-one-level pairs) the
// worst observed regression is under 0.3% relative IPC, so the metamorphic
// suite bounds FU growth with FUTolerance instead of demanding strictness.
func FUParams() []uarch.Param {
	return []uarch.Param{
		uarch.ParamIntALU, uarch.ParamIntMultDiv, uarch.ParamFpALU, uarch.ParamFpMultDiv,
	}
}

// CapacityParams is every resource the monotonicity suite grows: the
// strict capacities followed by the FU counts. Predictor tables and caches
// are deliberately excluded — bigger tables change which branches
// mispredict and which lines survive, effects that are non-monotonic by
// nature (aliasing can help).
func CapacityParams() []uarch.Param {
	return append(StrictCapacityParams(), FUParams()...)
}

// EdgeConfigs returns the capacity-floor corners of the standard space:
// the baseline with every window capacity (and the fetch queue) floored at
// once — at both width extremes — plus the baseline with each capacity
// floored individually. Random corpus draws essentially never land on
// these corners, yet they are exactly where the capacity-pool free lists
// saturate every cycle and where an off-by-one in pool bookkeeping or
// release tie order would first show. Only validating configs are
// returned, so the list tracks the space's own floors.
func EdgeConfigs() []uarch.Config {
	space := uarch.StandardSpace()
	base := space.Nearest(uarch.Baseline())
	starved := append(CapacityParams(), uarch.ParamFetchQueue)
	var out []uarch.Config
	for _, w := range []int{0, space.Levels(uarch.ParamWidth) - 1} {
		pt := base
		pt[uarch.ParamWidth] = w
		for _, p := range starved {
			pt[p] = 0
		}
		if c := space.Decode(pt); c.Validate() == nil {
			out = append(out, c)
		}
	}
	for _, p := range starved {
		pt := base
		pt[p] = 0
		if c := space.Decode(pt); c.Validate() == nil {
			out = append(out, c)
		}
	}
	return out
}

// FUTolerance is the allowed relative IPC drop when growing one FU count:
// an order of magnitude above the worst second-order regression observed,
// far below what any real scheduling or accounting bug costs.
const FUTolerance = 0.01

// GrowthViolation reports a monotonicity break: growing Param one level
// turned BaseIPC into GrownIPC, a drop beyond the tolerance.
type GrowthViolation struct {
	Param             uarch.Param
	Workload          string
	Base, Grown       uarch.Config
	BaseIPC, GrownIPC float64
}

// Error implements error, printing the offending config pair.
func (v *GrowthViolation) Error() string {
	return fmt.Sprintf("conformance: IPC not monotonic in %v on %s: %.6f -> %.6f\n  base:  %+v\n  grown: %+v",
		v.Param, v.Workload, v.BaseIPC, v.GrownIPC, v.Base, v.Grown)
}

// CheckGrowth grows prm one lattice level from pt and compares IPC over
// stream: a relative drop beyond tol is returned as a *GrowthViolation.
// checked is false when pt is already at the top level (or either config
// fails validation) and nothing was compared.
func CheckGrowth(space *uarch.Space, pt uarch.Point, prm uarch.Param, stream []isa.Inst, wl string, tol float64) (checked bool, err error) {
	up := pt
	if !space.Step(&up, prm, 1) {
		return false, nil
	}
	base, grown := space.Decode(pt), space.Decode(up)
	if base.Validate() != nil || grown.Validate() != nil {
		return false, nil
	}
	a, err := IPC(base, stream)
	if err != nil {
		return true, err
	}
	b, err := IPC(grown, stream)
	if err != nil {
		return true, err
	}
	if b < a*(1-tol) {
		return true, &GrowthViolation{
			Param: prm, Workload: wl, Base: base, Grown: grown, BaseIPC: a, GrownIPC: b,
		}
	}
	return true, nil
}

// IPC is the monotonicity metric: committed IPC of one probe-lite run of
// cfg over stream.
func IPC(cfg uarch.Config, stream []isa.Inst) (float64, error) {
	core, err := ooo.New(cfg)
	if err != nil {
		return 0, err
	}
	tr, st, err := core.RunLite(stream)
	if err != nil {
		return 0, err
	}
	tr.Release()
	return st.IPC(), nil
}
