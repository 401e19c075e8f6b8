// Command campaignbench is the repository's end-to-end benchmark. It runs
// the paper's exploration loop — or one long bottleneck analysis — through
// the public entry points the CLIs use (workload.Prewarm, dse.NewEvaluator,
// dse.Explorer.Run, dse.Evaluator.Evaluate, pareto.Hypervolume), checks the
// outputs, and prints one JSON result line. With -trace 1 it instead runs
// the campaign once and replays its History through each layer's public
// functions, timing every call from here, to report per-layer costs.
//
// Usage (from the repository root; campaignbench/run.sh builds and runs it):
//
//	campaignbench -workload explore-spec06 -seed 1 -seconds 25 -trace 0
//
// README.md documents the workloads, the metrics and the output checks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"archexplorer/internal/dse"
	"archexplorer/internal/pareto"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", specs[0].name, "workload to run")
		seed       = flag.Int64("seed", 1, "explorer seed (analyze-long: trace seed)")
		seconds    = flag.Float64("seconds", 25, "measured campaign time per run, in seconds")
		trace      = flag.Int("trace", 0, "1: replay the campaign per layer and report per-layer metrics")
		spansDir   = flag.String("spans-dir", "", "with -trace 1, write the recorded spans as JSON lines here")
		setupProbe = flag.Bool("setup-probe", false, "set up once, print \"ready\" and exit (used to time set-up)")
	)
	flag.Parse()
	s, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	c := &campaign{spec: s, seed: *seed}
	if *setupProbe {
		if _, err := c.setup(); err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		return
	}
	pins, err := loadPins()
	if err != nil {
		fatal(fmt.Errorf("pins.json: %w", err))
	}

	h, _ := json.Marshal(fingerprint())
	fmt.Printf("host %s\n", h)
	var res result
	if *trace == 1 {
		res, err = traced(c, pins, *spansDir)
	} else {
		res, err = measure(c, pins, *seconds, setupLaunches)
	}
	if err != nil {
		fatal(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupLaunches is how many set-up probes a run times; their median is
// steady to a few per cent although one launch takes only 10–60 ms.
const setupLaunches = 11

// setupSeconds launches this binary in set-up-probe mode runs times and
// returns the median time from launch until it reports ready: process
// start, trace prewarming and evaluator construction.
func setupSeconds(c *campaign, runs int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < runs; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", c.name, "-seed", fmt.Sprint(c.seed))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0).Seconds()
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up probe printed %q: %v", line, readErr)
		}
		ts = append(ts, d)
	}
	return median(ts), nil
}

// replaySample bounds the History entries the untraced run replays.
const replaySample = 8

// measure runs the campaign back to back until seconds of measured time
// have passed (at least once) and reports the end-to-end metrics. Times and
// rates are the best of the run's repetitions: on a shared host, contention
// from other tenants only ever slows a repetition down, and it comes in
// bursts that can cover most of a run, so the fastest repetition tracks the
// code's cost far more steadily than the median does (README.md has the
// numbers). Peak RSS is taken after the first repetition, so it does not
// grow with the repetition count. Every run is checked; the first one is
// also replayed on a sample of its History once timing is over.
func measure(c *campaign, pins pinFile, seconds float64, setupRuns int) (result, error) {
	setup, err := setupSeconds(c, setupRuns)
	if err != nil {
		return result{}, err
	}
	var walls, cpus []float64
	var rss float64
	var first *outcome
	var firstEv *dse.Evaluator
	firstFailed := false
	var res result
	for measured := 0.0; measured < seconds || res.Attempted == 0; {
		ev, err := c.setup()
		if err != nil {
			return result{}, err
		}
		runtime.GC()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		hv, err := c.run(ev)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		measured += wall
		res.Attempted++
		if err != nil {
			// A campaign error is deterministic; repeating it measures nothing.
			res.Failed++
			report(res.Attempted, []string{err.Error()})
			break
		}
		out := summarize(c, ev, hv)
		bad := check(c, ev, out, pins)
		if first == nil {
			first, firstEv, firstFailed = &out, ev, len(bad) > 0
			rss = peakRSSMB()
		} else if out != *first {
			bad = append(bad, fmt.Sprintf("%+v differs from the first run's %+v", out, *first))
		}
		if len(bad) > 0 {
			res.Failed++
			report(res.Attempted, bad)
		}
		fmt.Fprintf(os.Stderr, "run %d: wall %.3fs cpu %.3fs\n", res.Attempted, wall, cpu)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	var hv, rate float64
	if first != nil {
		hv = first.HV
		rate = float64(simInsts(firstEv)) / minOf(walls)
		fmt.Fprintf(os.Stderr, "%d runs: wall best %.3fs median %.3fs, cpu best %.3fs median %.3fs\n",
			len(walls), minOf(walls), median(walls), minOf(cpus), median(cpus))
		if _, bad := replay(firstEv, sampleIndices(len(firstEv.History), replaySample), nil); len(bad) > 0 {
			report(1, bad)
			if !firstFailed {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"wall_s":      {minOf(walls), "s"},
		"cpu_s":       {minOf(cpus), "s"},
		"insts_per_s": {rate, "inst/s"},
		"peak_rss_mb": {rss, "MB"},
		"setup_s":     {setup, "s"},
		"hypervolume": {hv, "hv"},
	}
	return res, nil
}

func simInsts(ev *dse.Evaluator) int64 {
	var n int64
	for _, e := range ev.History {
		n += e.SimInsts
	}
	return n
}

func report(run int, bad []string) {
	for _, b := range bad {
		fmt.Fprintf(os.Stderr, "run %d: check failed: %s\n", run, b)
	}
}

// runtimeSample reads the Go runtime's cumulative heap allocation and CPU
// accounting.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// traced runs the campaign once, untimed by spans, then replays all of its
// History through the layers with a span around every call, and reports
// the per-layer metrics. The replay must reproduce the campaign exactly.
func traced(c *campaign, pins pinFile, spansDir string) (result, error) {
	ev, err := c.setup()
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: 1}
	var bad []string
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	hv, err := c.run(ev)
	cpu := cpuSeconds() - cpu0
	rt1 := readRuntime()
	if err != nil {
		bad = append(bad, err.Error())
	} else {
		bad = append(bad, check(c, ev, summarize(c, ev, hv), pins)...)
	}

	t := newTracer()
	genInsts, gbad := genTraces(c, ev, t)
	bad = append(bad, gbad...)
	all := make([]int, len(ev.History))
	for i := range all {
		all[i] = i
	}
	n, rbad := replay(ev, all, t)
	bad = append(bad, rbad...)
	var points int
	var hv2 float64
	t.do("pareto.hv", 0, -1, "", func(int64) {
		pts := ev.PointsUpTo(c.simBudget())
		points = len(pts)
		hv2 = pareto.Hypervolume(pts, pareto.StandardReference)
	})
	if hv2 != hv {
		bad = append(bad, fmt.Sprintf("replayed hypervolume %v, campaign %v", hv2, hv))
	}
	if spansDir != "" {
		if err := writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-s%d.jsonl", c.name, c.seed)), t.spans); err != nil {
			return result{}, err
		}
	}
	if len(bad) > 0 {
		res.Failed = 1
		report(1, bad)
	}
	res.Correct = res.Failed == 0

	byName, byLayer, alloc := t.totals()
	var evals, probes, failed int
	var evalMS []float64
	for _, e := range ev.History {
		switch {
		case e.Failed:
			failed++
		case e.Probe:
			probes++
		default:
			evals++
		}
		evalMS = append(evalMS, float64(e.Elapsed.Nanoseconds())/1e6)
	}
	degS := byName["deg.build"] + byName["deg.construct"] + byName["deg.attribute"]
	const mb = 1 << 20
	res.Metrics = map[string]metric{
		"deg.calls":          {float64(n.degCalls), "count"},
		"deg.analyze_s":      {degS, "s"},
		"deg.build_s":        {byName["deg.build"], "s"},
		"deg.construct_s":    {byName["deg.construct"], "s"},
		"deg.attribute_s":    {byName["deg.attribute"], "s"},
		"deg.merge_s":        {byName["deg.merge"], "s"},
		"deg.edges":          {float64(n.edges), "count"},
		"deg.vertices":       {float64(n.vertices), "count"},
		"deg.edges_per_s":    {ratio(float64(n.edges), degS), "edges/s"},
		"deg.drops":          {float64(n.drops), "count"},
		"deg.alloc_mb":       {float64(alloc["deg"]) / mb, "MB"},
		"go.total_alloc_mb":  {(rt1.allocBytes - rt0.allocBytes) / mb, "MB"},
		"go.gc_cpu_fraction": {ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio"},
		"ooo.calls":          {float64(n.oooCalls), "count"},
		"ooo.run_s":          {byName["ooo.run"], "s"},
		"ooo.new_s":          {byName["ooo.new"], "s"},
		"ooo.insts":          {float64(n.insts), "inst"},
		"ooo.cycles":         {float64(n.cycles), "cycles"},
		"ooo.insts_per_s":    {ratio(float64(n.insts), byName["ooo.run"]), "inst/s"},
		"ooo.alloc_mb":       {float64(alloc["ooo"]) / mb, "MB"},
		"workload.gen_s":     {byName["workload.gen"], "s"},
		"workload.insts":     {float64(genInsts), "inst"},
		"mcpat.eval_s":       {byName["mcpat.eval"], "s"},
		"mcpat.calls":        {float64(n.mcpatCalls), "count"},
		"dse.evals":          {float64(evals), "count"},
		"dse.probes":         {float64(probes), "count"},
		"dse.sims":           {ev.Sims, "sims"},
		"dse.failed":         {float64(failed), "count"},
		"dse.eval_ms_p50":    {percentile(evalMS, 0.50), "ms"},
		"dse.eval_ms_p95":    {percentile(evalMS, 0.95), "ms"},
		"dse.overhead_s":     {cpu - byLayer["ooo"] - byLayer["mcpat"] - byLayer["deg"] - byLayer["pareto"], "s"},
		"pareto.hv_s":        {byName["pareto.hv"], "s"},
		"pareto.points":      {float64(points), "count"},
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
