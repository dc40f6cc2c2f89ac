// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload through the program's public entry points — core.Search
// in-process, or the datamimed service through its HTTP handler — checks
// the outputs, and prints one JSON result line. With -trace 1 it runs the
// unit of work twice, untraced and traced, requires bit-identical results,
// and prints the per-layer split the traced run measured from outside the
// program. See README.md for the metrics and workloads.
//
// Run it from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload search-memfb --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

type metricDef struct{ name, unit string }

// The metrics a run prints: end-to-end ones untraced, per-layer ones
// traced. BENCHMARK.json lists the same names and units.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"search_s", "s"},
		{"cpu_s", "s"},
		{"alloc_mb", "MB"},
	}
	perLayer = []metricDef{
		{"apps.build_s", "s"}, {"apps.builds", "count"},
		{"sim.warm_s", "s"}, {"sim.warms", "count"},
		{"sim.serve_s", "s"}, {"sim.requests", "count"}, {"sim.serve_us_per_req", "us"},
		{"profile.evals", "count"}, {"profile.eval_s.p50", "s"}, {"profile.eval_s.max", "s"},
		{"profile.setup_share", "ratio"},
		{"opt.propose_s", "s"}, {"opt.observe_s", "s"}, {"opt.proposals", "count"},
		{"core.objective_s", "s"}, {"core.objective_calls", "count"},
		{"backend.cache_hits", "count"}, {"backend.cache_misses", "count"}, {"backend.cache_hit_ratio", "ratio"},
		{"service.job_s.cold", "s"}, {"service.job_s.extend", "s"}, {"service.queue_s", "s"},
		{"service.checkpoint_mb", "MB"}, {"corpus.mb", "MB"}, {"written_mb", "MB"},
		{"corpus.query_s", "s"}, {"inspect.report_s", "s"},
		{"runtime.max_rss_mb", "MB"}, {"runtime.gc_cycles", "count"},
		{"search.best_error", "emd"},
		{"trace.overhead_ratio", "ratio"}, {"trace.coverage", "ratio"},
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name       = flag.String("workload", "", "workload: search-memfb, search-dnn or service-silo (comma-separated or \"all\" with -steadiness)")
		seed       = flag.Uint64("seed", 1, "seed all inputs derive from")
		seconds    = flag.Int("seconds", 10, "measure at least this long; a run repeats its unit of work until then, at least once")
		traced     = flag.Int("trace", 0, "1 = print per-layer metrics from a traced run instead of end-to-end ones")
		workdir    = flag.String("workdir", filepath.Join(".bench_build", "e2ebench-work"), "directory for the service's files and the traced run's spans")
		steadiness = flag.Int("steadiness", 0, "run each workload this many times, seeds -seed.., and print the spread of every metric")
	)
	flag.Parse()
	var err error
	switch {
	case *steadiness > 0:
		err = steady(os.Stdout, *name, *seed, *steadiness, *seconds, *traced == 1, *workdir)
	case *traced == 1:
		err = runTraced(*name, *seed, *workdir)
	default:
		err = runUntraced(*name, *seed, *seconds, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// prepare builds the workload and runs its set-up setupReps times.
func prepare(name string, seed uint64, workdir string, reps int) (bench, []float64, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, nil, err
	}
	b, err := newBench(name, seed, workdir)
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, times, nil
}

func runUntraced(name string, seed uint64, seconds int, workdir string) error {
	b, setups, err := prepare(name, seed, workdir, setupReps)
	if err != nil {
		return err
	}
	var units []unit
	start := time.Now()
	for len(units) == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		u, err := b.run(nil)
		if err != nil {
			return err
		}
		if len(units) > 0 && !bytes.Equal(u.fingerprint, units[0].fingerprint) {
			return fmt.Errorf("repeated unit of work gave different results")
		}
		units = append(units, u)
	}
	pick := func(f func(unit) float64) float64 {
		xs := make([]float64, len(units))
		for i, u := range units {
			xs[i] = f(u)
		}
		return median(xs)
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, u := range units {
		res.Attempted += u.attempted
	}
	values := map[string]float64{
		"setup_s":  median(setups),
		"search_s": pick(func(u unit) float64 { return u.region.wallS }),
		"cpu_s":    pick(func(u unit) float64 { return u.region.cpuS }),
		"alloc_mb": pick(func(u unit) float64 { return u.region.allocMB }),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return printResult(res)
}

func runTraced(name string, seed uint64, workdir string) error {
	b, _, err := prepare(name, seed, workdir, 1)
	if err != nil {
		return err
	}
	base, err := b.run(nil)
	if err != nil {
		return err
	}
	t := newTracer()
	traced, err := b.run(t)
	if err != nil {
		return err
	}
	if !bytes.Equal(base.fingerprint, traced.fingerprint) {
		return fmt.Errorf("traced run's results differ from the untraced run's:\n%s\n%s", base.fingerprint, traced.fingerprint)
	}
	spans := t.finish()
	if err := writeSpans(filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed)), spans); err != nil {
		return err
	}
	values := layerValues(spans, base, traced)
	res := result{Correct: true, Attempted: base.attempted + traced.attempted, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return printResult(res)
}

// layerValues derives the per-layer metrics from the traced unit's spans
// and reports; base is the untraced unit of the same seed.
func layerValues(spans []span, base, traced unit) map[string]float64 {
	v := map[string]float64{}
	for k, x := range traced.layers {
		v[k] = x
	}
	var n int
	v["apps.build_s"], n = sumSeconds(spans, spanBuild)
	v["apps.builds"] = float64(n)
	v["sim.warm_s"], n = sumSeconds(spans, spanWarm)
	v["sim.warms"] = float64(n)
	v["sim.serve_s"], _ = sumSeconds(spans, spanServe)
	var proposals, requests int64
	for _, s := range spans {
		switch s.Name {
		case spanServe:
			requests += s.Count
		case spanPropose:
			proposals += s.Count
		}
	}
	v["sim.requests"] = float64(requests)
	if requests > 0 {
		v["sim.serve_us_per_req"] = v["sim.serve_s"] / float64(requests) * 1e6
	}
	if evals := durations(spans, spanEval); len(evals) > 0 {
		v["profile.evals"] = float64(len(evals))
		v["profile.eval_s.p50"] = median(evals)
		v["profile.eval_s.max"] = evals[len(evals)-1]
	}
	setup := v["apps.build_s"] + v["sim.warm_s"]
	if setup+v["sim.serve_s"] > 0 {
		v["profile.setup_share"] = setup / (setup + v["sim.serve_s"])
	}
	v["opt.propose_s"], _ = sumSeconds(spans, spanPropose)
	v["opt.observe_s"], _ = sumSeconds(spans, spanObserve)
	v["opt.proposals"] = float64(proposals)
	v["core.objective_s"], n = sumSeconds(spans, spanObjective)
	v["core.objective_calls"] = float64(n)
	if lookups := v["backend.cache_hits"] + v["backend.cache_misses"]; lookups > 0 {
		v["backend.cache_hit_ratio"] = v["backend.cache_hits"] / lookups
	}
	for _, s := range spans {
		switch {
		case s.Name != spanHTTP:
		case s.Trace == "GET /v1/corpus":
			v["corpus.query_s"] += s.seconds()
		case strings.HasSuffix(s.Trace, "/report"):
			v["inspect.report_s"] += s.seconds()
		}
	}
	v["search.best_error"] = traced.bestError
	v["written_mb"] = traced.region.writtenMB
	v["runtime.max_rss_mb"] = maxRSSMB()
	v["runtime.gc_cycles"] = traced.region.gcCycles
	v["trace.overhead_ratio"] = traced.region.wallS / base.region.wallS
	explained := v["apps.build_s"] + v["sim.warm_s"] + v["sim.serve_s"] + v["opt.propose_s"] + v["opt.observe_s"] + v["core.objective_s"]
	v["trace.coverage"] = explained / traced.region.wallS
	return v
}

func printResult(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
