package conformance

import (
	"errors"
	"strings"
	"testing"

	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// TestCheckOneDetectsDivergence drives the detector itself: hand
// checkOne a reference that does not match the config under check and it
// must name the engine that diverges. This is the only way to exercise
// the mismatch paths while the real engines agree.
func TestCheckOneDetectsDivergence(t *testing.T) {
	st := stream(t, "458.sjeng", 600)
	space := uarch.StandardSpace()
	cfg := space.Decode(space.Nearest(uarch.Baseline()))
	other := cfg
	other.Width = cfg.Width * 2

	run := func(c uarch.Config, lite bool) (*pipetrace.Trace, *ooo.Stats) {
		core, err := ooo.New(c)
		if err != nil {
			t.Fatal(err)
		}
		sim := core.Run
		if lite {
			sim = core.RunLite
		}
		tr, stats, err := sim(st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Release)
		return tr, stats
	}
	refTr, refSt := run(cfg, false)
	otherTr, otherSt := run(other, false)
	// A lite reference has the right timing but no DEG annotations, so
	// only the full-fingerprint engine can tell it apart.
	liteTr, liteSt := run(cfg, true)

	var m *Mismatch
	if err := checkOne(st, "wl", cfg, otherTr, otherSt, false); !errors.As(err, &m) || m.Engine != "lite" {
		t.Fatalf("divergent reference not caught by the lite engine: %v", err)
	}
	if m.Workload != "wl" || m.Config != cfg || m.Want == m.Got {
		t.Fatalf("mismatch misreported: %+v", m)
	}
	if err := checkOne(st, "wl", cfg, liteTr, liteSt, false); !errors.As(err, &m) || m.Engine != "stream" {
		t.Fatalf("annotation-free reference not caught by the stream engine: %v", err)
	}
	if err := checkOne(st, "wl", cfg, refTr, refSt, true); err != nil {
		t.Fatalf("agreeing engines rejected: %v", err)
	}

	// A config the engines themselves reject surfaces as an error.
	bad := cfg
	bad.IntRF = 2
	if err := checkOne(st, "wl", bad, refTr, refSt, false); err == nil {
		t.Fatal("invalid config accepted")
	}
	// An empty stream fails the engine runs.
	if err := checkOne(nil, "wl", cfg, refTr, refSt, false); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestStreamFingerprintErrors: operational failures of the streaming
// engine (and of the others) propagate instead of producing a bogus hash.
func TestStreamFingerprintErrors(t *testing.T) {
	for _, engine := range []string{"stream", "full", "lite"} {
		core, err := ooo.New(uarch.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engineFingerprint(core, engine, nil); err == nil {
			t.Fatalf("%s: empty stream accepted", engine)
		}
	}
	bad := uarch.Baseline()
	bad.IntRF = 2
	if err := checkReuse(stream(t, "458.sjeng", 200), "458.sjeng", bad, 1, 1); err == nil {
		t.Fatal("reuse engine accepted an invalid config")
	}
}

// TestReuseEngineDetectsDivergence: the reuse engine compares its runs
// against the references it is given and names itself when one differs.
func TestReuseEngineDetectsDivergence(t *testing.T) {
	cfg := uarch.Baseline()
	st := stream(t, "458.sjeng", 300)
	core, err := ooo.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, refSt, err := core.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	ref, refTiming := ooo.Fingerprint(tr, refSt), ooo.TimingFingerprint(tr, refSt)
	tr.Release()
	if err := checkReuse(st, "wl", cfg, ref, refTiming); err != nil {
		t.Fatalf("agreeing reuse runs rejected: %v", err)
	}
	var m *Mismatch
	if err := checkReuse(st, "wl", cfg, ref, refTiming+1); !errors.As(err, &m) || m.Engine != "reuse" {
		t.Fatalf("divergent reference not caught by the reuse engine: %v", err)
	}
}

// TestIPCErrors: the monotonicity metric refuses invalid configs and empty
// streams.
func TestIPCErrors(t *testing.T) {
	bad := uarch.Baseline()
	bad.IntRF = 2
	if _, err := IPC(bad, stream(t, "458.sjeng", 200)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := IPC(uarch.Baseline(), nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestCheckGrowthPropagatesErrors: a simulation failure inside the growth
// pair surfaces as an error, not a verdict.
func TestCheckGrowthPropagatesErrors(t *testing.T) {
	space := uarch.StandardSpace()
	pt := space.Nearest(uarch.Baseline())
	did, err := CheckGrowth(space, pt, uarch.ParamROB, nil, "wl", 0)
	if !did || err == nil {
		t.Fatalf("empty-stream growth check: checked=%v err=%v", did, err)
	}
}

// TestGrowthViolationError: the report prints the parameter, workload,
// both IPCs, and both configs.
func TestGrowthViolationError(t *testing.T) {
	base := uarch.Baseline()
	grown := base
	grown.ROBEntries = base.ROBEntries * 2
	v := &GrowthViolation{
		Param: uarch.ParamROB, Workload: "429.mcf",
		Base: base, Grown: grown, BaseIPC: 1.5, GrownIPC: 1.25,
	}
	for _, want := range []string{"ROB", "429.mcf", "1.5", "1.25", "base:", "grown:"} {
		if !strings.Contains(v.Error(), want) {
			t.Fatalf("violation report %q missing %q", v.Error(), want)
		}
	}
}
