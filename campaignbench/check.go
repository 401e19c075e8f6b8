package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"archexplorer/internal/deg"
	"archexplorer/internal/dse"
	"archexplorer/internal/pareto"
)

// pinsJSON holds the seed-1 outcomes every correct run must reproduce. It
// also records the held-out seed later claims must hold on (README.md).
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	PinnedSeed int64              `json:"pinned_seed"`
	Workloads  map[string]outcome `json:"workloads"`
}

func loadPins() (pinFile, error) {
	var p pinFile
	err := json.Unmarshal(pinsJSON, &p)
	return p, err
}

// telescopeTol bounds the rounding error of Σ Contrib + Base against 1.
const telescopeTol = 1e-9

// telescopes checks the paper's invariant on one report: the attributed
// shares plus Base sum to the whole runtime.
func telescopes(r *deg.Report) error {
	sum := r.Base
	for _, c := range r.Contrib {
		sum += c
	}
	if math.Abs(sum-1) > telescopeTol || r.BaseClamped {
		return fmt.Errorf("shares+base = %.12f (clamped %v), want 1", sum, r.BaseClamped)
	}
	return nil
}

// outcome is what one measured run produced; all of it is deterministic
// for a seed.
type outcome struct {
	HV      float64 `json:"hypervolume"`
	Designs int     `json:"designs"`
	Sims    float64 `json:"sims"`
}

func summarize(c *campaign, ev *dse.Evaluator, hv float64) outcome {
	return outcome{HV: hv, Designs: len(ev.PointsUpTo(c.simBudget())), Sims: ev.Sims}
}

// check runs the output checks on one finished run and returns every
// failure it finds; an empty result means the run is correct.
func check(c *campaign, ev *dse.Evaluator, out outcome, pins pinFile) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	for i, e := range ev.History {
		if e.Failed {
			fail("history[%d] failed at %s: %s", i, e.FailSite, e.FailReason)
		}
		if e.DEGDrops != 0 {
			fail("history[%d]: %d dropped DEG edges", i, e.DEGDrops)
		}
		if e.Report != nil {
			if err := telescopes(e.Report); err != nil {
				fail("history[%d] report: %v", i, err)
			}
		}
	}

	pts := ev.PointsUpTo(c.simBudget())
	if hv := pareto.Hypervolume(pareto.Frontier(pts), pareto.StandardReference); hv != out.HV {
		fail("hypervolume %v from the frontier, %v reported", hv, out.HV)
	}
	if out.HV <= 0 {
		fail("hypervolume %v is not positive", out.HV)
	}

	budget := c.simBudget()
	if lim := c.overrunLimit(ev); out.Sims < budget || out.Sims > budget+lim {
		fail("spent %v sims, want within [%v, %v]", out.Sims, budget, budget+lim)
	}

	if c.seed == pins.PinnedSeed {
		if p, ok := pins.Workloads[c.name]; !ok {
			fail("no pinned outcome for %s (this run: %+v)", c.name, out)
		} else if p != out {
			fail("seed %d: %+v, pinned %+v", c.seed, out, p)
		}
	}
	return bad
}
