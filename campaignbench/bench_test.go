package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload so a smoke test runs in well under a second.
func tiny(t *testing.T, name string, seed int64) *campaign {
	t.Helper()
	s, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "explore-spec06":
		s.budget, s.traceLen = 30, 1000
	case "sweep-spec17":
		s.budget, s.traceLen = 28, 2000
	case "analyze-long":
		s.traceLen = 5000
	}
	return &campaign{spec: s, seed: seed}
}

func mustPins(t *testing.T) pinFile {
	t.Helper()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSmokeAllWorkloads(t *testing.T) {
	pins := mustPins(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			c := tiny(t, s.name, 2)
			res, err := measure(c, pins, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
				t.Fatalf("measure: %+v", res)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 && name != "setup_s" {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			tr, err := traced(c, pins, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct || tr.Failed != 0 {
				t.Fatalf("traced: %+v", tr)
			}
			degCalls := tr.Metrics["deg.calls"].Value
			if (degCalls == 0) != (s.name == "sweep-spec17") {
				t.Errorf("deg.calls = %v on %s", degCalls, s.name)
			}
		})
	}
}

func TestReplayReproducesCampaign(t *testing.T) {
	c := tiny(t, "explore-spec06", 3)
	ev, err := c.setup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.run(ev); err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(ev.History))
	for i := range all {
		all[i] = i
	}
	tr := newTracer()
	n, bad := replay(ev, all, tr)
	if len(bad) > 0 {
		t.Fatalf("replay differs: %v", bad)
	}
	if n.degCalls == 0 || n.insts != simInsts(ev) {
		t.Fatalf("replay counts %+v, campaign committed %d instructions", n, simInsts(ev))
	}
	if len(tr.spans) == 0 {
		t.Fatal("no spans recorded")
	}

	// The comparison is live: a report the replay cannot reproduce fails it.
	i := -1
	for k, e := range ev.History {
		if e.Report != nil {
			i = k
			break
		}
	}
	if i < 0 {
		t.Fatal("campaign produced no DEG report")
	}
	orig := ev.History[i]
	forged := *orig
	rep := *orig.Report
	rep.L++
	forged.Report = &rep
	ev.History[i] = &forged
	defer func() { ev.History[i] = orig }()
	if _, bad := replay(ev, []int{i}, nil); len(bad) == 0 {
		t.Fatal("replay accepted a forged report")
	}
}

func TestCheckRejectsPinMismatch(t *testing.T) {
	c := tiny(t, "sweep-spec17", 1)
	ev, err := c.setup()
	if err != nil {
		t.Fatal(err)
	}
	hv, err := c.run(ev)
	if err != nil {
		t.Fatal(err)
	}
	out := summarize(c, ev, hv)
	pins := pinFile{PinnedSeed: 1, Workloads: map[string]outcome{c.name: out}}
	if bad := check(c, ev, out, pins); len(bad) > 0 {
		t.Fatalf("matching pins rejected: %v", bad)
	}
	pins.Workloads[c.name] = outcome{HV: out.HV * 1.001, Designs: out.Designs, Sims: out.Sims}
	if bad := check(c, ev, out, pins); len(bad) == 0 {
		t.Fatal("mismatched pin accepted")
	}
	ev.Sims += float64(len(c.suite)) + 1
	if bad := check(c, ev, outcome{HV: out.HV, Designs: out.Designs, Sims: ev.Sims}, pinFile{}); len(bad) == 0 {
		t.Fatal("budget overrun accepted")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, s := range specs {
		want = append(want, s.name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, benchmark has %v", got, want)
	}

	pins := mustPins(t)
	c := tiny(t, "analyze-long", 2)
	e2e, err := measure(c, pins, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := traced(c, pins, "")
	if err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, listed []struct{ Name, Unit, Better string }, printed map[string]metric) {
		var l, p []string
		for _, m := range listed {
			l = append(l, m.Name+" "+m.Unit)
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
		}
		for name, m := range printed {
			p = append(p, name+" "+m.Unit)
		}
		sort.Strings(l)
		sort.Strings(p)
		if strings.Join(l, ",") != strings.Join(p, ",") {
			t.Errorf("%s metrics in BENCHMARK.json:\n  %v\nprinted:\n  %v", kind, l, p)
		}
	}
	compare("end_to_end", b.EndToEnd, e2e.Metrics)
	compare("per_layer", b.PerLayer, layers.Metrics)
}
