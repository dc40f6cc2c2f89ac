package main

import (
	"reflect"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/silodb"
	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// tinyProfiler keeps each evaluation to a fraction of a second while still
// running the warm scan, warmup windows and a two-point way curve.
func tinyProfiler() *profile.Profiler {
	p := profile.New(sim.Broadwell())
	p.WindowCycles = 100_000
	p.Windows = 2
	p.WarmupWindows = 1
	p.CurveWindows = 1
	p.CurvePoints = 2
	return p
}

// search runs a short seeded search whose optimizer reaches the GP after
// three initial-design points, with every wrapper on when t is non-nil.
func search(t *testing.T, tr *tracer, gen datagen.Generator, obj core.Objective, parallel int) *core.Result {
	t.Helper()
	var o opt.Optimizer = opt.NewBayesOpt(gen.Space, opt.BayesOptConfig{Seed: 7, InitPoints: 3, Candidates: 64})
	if tr != nil {
		gen, o, obj = tr.wrapGenerator(gen), tr.wrapOptimizer(o), tr.wrapObjective(obj)
	}
	res, err := core.Search(core.SearchConfig{
		Generator:  gen,
		Objective:  obj,
		Profiler:   tinyProfiler(),
		Iterations: 6,
		Optimizer:  o,
		Seed:       7,
		Parallel:   parallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult requires the two searches to agree on every result bit: best
// point, best profile, and each iteration's error, attribution and GP
// diagnostics.
func sameResult(t *testing.T, off, on *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(off.BestParams, on.BestParams) || off.BestError != on.BestError {
		t.Errorf("best differs: off %v @ %v, on %v @ %v", off.BestError, off.BestParams, on.BestError, on.BestParams)
	}
	if !reflect.DeepEqual(off.BestProfile, on.BestProfile) {
		t.Error("best profile differs")
	}
	if !reflect.DeepEqual(off.Trace, on.Trace) {
		t.Errorf("trace differs:\noff %+v\non  %+v", off.Trace, on.Trace)
	}
}

func TestWrappersKeepSearchBitIdentical(t *testing.T) {
	mid := func(g datagen.Generator) []float64 {
		u := make([]float64, g.Space.Dim())
		for i := range u {
			u[i] = 0.4
		}
		return g.Space.Denormalize(u)
	}
	mem := datagen.Memcached()
	target, err := tinyProfiler().Profile(mem.Benchmark(mid(mem)), 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		gen  datagen.Generator
		obj  core.Objective
	}{
		// kvstore is Warmable, Sizer and Compressible; the profile
		// objective is attributed.
		{"kvstore", mem, core.NewProfileObjective(target, core.NewErrorModel())},
		// silodb is Warmable and Sizer but not Compressible; the metric
		// objective is not attributed.
		{"silodb", datagen.Silo(), core.MetricObjective{Metric: profile.MetricIPC, Value: 1.2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := newTracer()
			sameResult(t, search(t, nil, c.gen, c.obj, 1), search(t, tr, c.gen, c.obj, 1))
			spans := tr.finish()
			if _, n := sumSeconds(spans, spanEval); n != 6 {
				t.Errorf("traced %d evaluations, want 6", n)
			}
			if _, n := sumSeconds(spans, spanObjective); n != 6 {
				t.Errorf("traced %d objective calls, want 6", n)
			}
			if _, n := sumSeconds(spans, spanServe); n == 0 {
				t.Error("traced no serve steps")
			}
		})
	}
}

func TestOptimizerWrapperKeepsBatchPath(t *testing.T) {
	gen := datagen.Memcached()
	obj := core.MetricObjective{Metric: profile.MetricIPC, Value: 1.2}
	tr := newTracer()
	sameResult(t, search(t, nil, gen, obj, 2), search(t, tr, gen, obj, 2))
	// core.Search proposes through NextBatch when the optimizer has it;
	// otherwise it calls Next once per batch and perturbs the rest.
	var batches int
	for _, s := range tr.finish() {
		if s.Name != spanPropose {
			continue
		}
		batches++
		if s.Count != 2 {
			t.Errorf("a proposal returned %d points, want batches of 2 from NextBatch", s.Count)
		}
	}
	if batches != 3 {
		t.Errorf("traced %d batch proposals, want 3", batches)
	}
}

func TestWrappersForwardExactlyTheInnerInterfaces(t *testing.T) {
	layout := trace.NewCodeLayout()
	servers := []workload.Server{
		kvstore.New(kvstore.Config{
			NumKeys:   64,
			KeySize:   stats.Normal{Mu: 16, Sigma: 1, Min: 4},
			ValueSize: stats.Normal{Mu: 64, Sigma: 1, Min: 1},
			GetRatio:  0.9,
		}, layout, 1),
		silodb.New(silodb.Config{Mode: silodb.ModeTPCC, Warehouses: 1, TxMix: [5]float64{1, 1, 1, 1, 1}}, layout, 1),
	}
	for _, inner := range servers {
		wrapped := wrapServer(inner, &runTrace{t: newTracer()})
		for _, probe := range []func(workload.Server) bool{
			func(s workload.Server) bool { _, ok := s.(workload.Warmable); return ok },
			func(s workload.Server) bool { _, ok := s.(workload.Sizer); return ok },
			func(s workload.Server) bool { _, ok := s.(workload.Compressible); return ok },
		} {
			if probe(inner) != probe(wrapped) {
				t.Errorf("%s: wrapper changes an optional interface", inner.Name())
			}
		}
	}
	tr := newTracer()
	optimizers := []opt.Optimizer{
		opt.NewBayesOpt(datagen.Memcached().Space, opt.BayesOptConfig{Seed: 1}),
		opt.NewRandomSearch(datagen.Memcached().Space, 1),
		opt.NewAnneal(datagen.Memcached().Space, 1, 0, 0),
	}
	for _, inner := range optimizers {
		wrapped := tr.wrapOptimizer(inner)
		for _, probe := range []func(opt.Optimizer) bool{
			func(o opt.Optimizer) bool { _, ok := o.(opt.BatchOptimizer); return ok },
			func(o opt.Optimizer) bool { _, ok := o.(opt.DiagnosticsReporter); return ok },
			func(o opt.Optimizer) bool { _, ok := o.(opt.TimingReporter); return ok },
		} {
			if probe(inner) != probe(wrapped) {
				t.Errorf("%s: wrapper changes an optional interface", inner.Name())
			}
		}
	}
	for _, inner := range []core.Objective{core.NewProfileObjective(&profile.Profile{}, core.NewErrorModel()), core.MetricObjective{}} {
		_, want := inner.(core.AttributedObjective)
		if _, got := tr.wrapObjective(inner).(core.AttributedObjective); got != want {
			t.Errorf("%s: wrapper changes AttributedObjective", inner.Describe())
		}
	}
}
