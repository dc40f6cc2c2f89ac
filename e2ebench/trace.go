package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// Span names. Every span is recorded from this package, around a call into
// one of the program's public seams; nothing inside the program is
// instrumented.
const (
	spanEval      = "profile.eval"   // one fresh candidate evaluation
	spanBuild     = "apps.build"     // workload.Benchmark.NewServer
	spanWarm      = "sim.warm"       // workload.Warmable.WarmDataset
	spanServe     = "sim.serve"      // first Handle call to last Handle return of one run
	spanPropose   = "opt.propose"    // opt.Optimizer.Next / NextBatch
	spanObserve   = "opt.observe"    // opt.Optimizer.Observe
	spanObjective = "core.objective" // core.Objective.Evaluate / EvaluateAttributed
	spanHTTP      = "http"           // one request through the service handler
)

// span is one timed call. Start and End are nanoseconds since the tracer's
// origin. Trace groups the spans of one candidate (its id) or one HTTP
// request; Parent is the index of the causing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the number of requests a serve span covers, or of points a
	// propose span returned.
	Count int64 `json:"count,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the service runs two jobs and two sweep workers at once.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	runs  []*runTrace
	cands int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// newEval opens the span of one candidate evaluation. Its end is the end
// of its last child, filled in by finish.
func (t *tracer) newEval() (id int, traceID string) {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cands++
	traceID = "cand-" + strconv.Itoa(t.cands)
	t.spans = append(t.spans, span{Name: spanEval, Trace: traceID, Parent: -1, Start: start, End: start})
	return len(t.spans) - 1, traceID
}

// finish closes the serve spans of every run, extends each evaluation
// span to its last child, and returns a copy of the spans. It must be
// called once the traced calls have returned.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.runs {
		if r.requests > 0 {
			t.spans = append(t.spans, span{Name: spanServe, Trace: r.trace, Parent: r.eval,
				Start: r.serveStart, End: r.serveEnd, Count: r.requests})
		}
	}
	t.runs = nil
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == spanEval && s.End > t.spans[s.Parent].End {
			t.spans[s.Parent].End = s.End
		}
	}
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed records fn's duration as a span.
func (t *tracer) timed(name, traceID string, parent int, fn func()) {
	start := t.now()
	fn()
	t.add(span{Name: name, Trace: traceID, Parent: parent, Start: start, End: t.now()})
}

// wrapGenerator times every evaluation of g: Benchmark opens a candidate
// span, and each partition run's build, warm and serve steps become its
// children.
func (t *tracer) wrapGenerator(g datagen.Generator) datagen.Generator {
	inner := g.Benchmark
	g.Benchmark = func(x []float64) workload.Benchmark {
		eval, traceID := t.newEval()
		b := inner(x)
		newServer := b.NewServer
		b.NewServer = func(layout *trace.CodeLayout, seed uint64) workload.Server {
			var srv workload.Server
			t.timed(spanBuild, traceID, eval, func() { srv = newServer(layout, seed) })
			rt := &runTrace{t: t, eval: eval, trace: traceID}
			t.mu.Lock()
			t.runs = append(t.runs, rt)
			t.mu.Unlock()
			return wrapServer(srv, rt)
		}
		return b
	}
	return g
}

// runTrace is the serve-step state of one partition run. A server instance
// serves one run on one goroutine, so its fields need no lock; finish reads
// them after the run has returned.
type runTrace struct {
	t          *tracer
	eval       int
	trace      string
	serveStart int64
	serveEnd   int64
	requests   int64
}

// server wraps one application instance. It reads the clock once per
// request (plus once at the first), and records no per-request span.
type server struct {
	inner workload.Server
	rt    *runTrace
}

func (s *server) Name() string { return s.inner.Name() }

func (s *server) Handle(col trace.Collector, rng *stats.RNG) {
	rt := s.rt
	if rt.requests == 0 {
		rt.serveStart = rt.t.now()
	}
	s.inner.Handle(col, rng)
	rt.serveEnd = rt.t.now()
	rt.requests++
}

// The optional interfaces the profiler probes for. Each wrapper type below
// implements exactly the subset its inner server does, so the profiler
// takes the same path through a wrapped server as through the bare one.
type warmer struct{ s *server }

func (w warmer) WarmDataset(col trace.Collector) {
	rt := w.s.rt
	rt.t.timed(spanWarm, rt.trace, rt.eval, func() { w.s.inner.(workload.Warmable).WarmDataset(col) })
}

type sizer struct{ s *server }

func (z sizer) LastMessageSizes() (req, resp int) {
	return z.s.inner.(workload.Sizer).LastMessageSizes()
}

type compressor struct{ s *server }

func (c compressor) CompressionRatio() float64 {
	return c.s.inner.(workload.Compressible).CompressionRatio()
}

func wrapServer(inner workload.Server, rt *runTrace) workload.Server {
	s := &server{inner: inner, rt: rt}
	_, w := inner.(workload.Warmable)
	_, z := inner.(workload.Sizer)
	_, c := inner.(workload.Compressible)
	switch {
	case w && z && c:
		return struct {
			*server
			warmer
			sizer
			compressor
		}{s, warmer{s}, sizer{s}, compressor{s}}
	case w && z:
		return struct {
			*server
			warmer
			sizer
		}{s, warmer{s}, sizer{s}}
	case w && c:
		return struct {
			*server
			warmer
			compressor
		}{s, warmer{s}, compressor{s}}
	case z && c:
		return struct {
			*server
			sizer
			compressor
		}{s, sizer{s}, compressor{s}}
	case w:
		return struct {
			*server
			warmer
		}{s, warmer{s}}
	case z:
		return struct {
			*server
			sizer
		}{s, sizer{s}}
	case c:
		return struct {
			*server
			compressor
		}{s, compressor{s}}
	}
	return s
}

// optimizer times proposals and observations.
type optimizer struct {
	inner opt.Optimizer
	t     *tracer
}

func (o *optimizer) Next() []float64 {
	start := o.t.now()
	x := o.inner.Next()
	o.t.add(span{Name: spanPropose, Trace: "search", Parent: -1, Start: start, End: o.t.now(), Count: 1})
	return x
}

func (o *optimizer) Observe(x []float64, y float64) {
	o.t.timed(spanObserve, "search", -1, func() { o.inner.Observe(x, y) })
}

func (o *optimizer) Best() ([]float64, float64, bool) { return o.inner.Best() }
func (o *optimizer) Name() string                     { return o.inner.Name() }

type batcher struct{ o *optimizer }

func (b batcher) NextBatch(k int) [][]float64 {
	t := b.o.t
	start := t.now()
	xs := b.o.inner.(opt.BatchOptimizer).NextBatch(k)
	t.add(span{Name: spanPropose, Trace: "search", Parent: -1, Start: start, End: t.now(), Count: int64(len(xs))})
	return xs
}

type diagnoser struct{ o *optimizer }

func (d diagnoser) TakeDiagnostics() (opt.Diagnostics, bool) {
	return d.o.inner.(opt.DiagnosticsReporter).TakeDiagnostics()
}

type timer struct{ o *optimizer }

func (tr timer) TakeTimings() (opt.Timings, bool) {
	return tr.o.inner.(opt.TimingReporter).TakeTimings()
}

// wrapOptimizer forwards exactly the optional interfaces inner implements,
// so core.Search batches, drains diagnostics and reads timings as it would
// on the bare optimizer.
func (t *tracer) wrapOptimizer(inner opt.Optimizer) opt.Optimizer {
	o := &optimizer{inner: inner, t: t}
	_, b := inner.(opt.BatchOptimizer)
	_, d := inner.(opt.DiagnosticsReporter)
	_, tm := inner.(opt.TimingReporter)
	switch {
	case b && d && tm:
		return struct {
			*optimizer
			batcher
			diagnoser
			timer
		}{o, batcher{o}, diagnoser{o}, timer{o}}
	case b && d:
		return struct {
			*optimizer
			batcher
			diagnoser
		}{o, batcher{o}, diagnoser{o}}
	case b && tm:
		return struct {
			*optimizer
			batcher
			timer
		}{o, batcher{o}, timer{o}}
	case d && tm:
		return struct {
			*optimizer
			diagnoser
			timer
		}{o, diagnoser{o}, timer{o}}
	case b:
		return struct {
			*optimizer
			batcher
		}{o, batcher{o}}
	case d:
		return struct {
			*optimizer
			diagnoser
		}{o, diagnoser{o}}
	case tm:
		return struct {
			*optimizer
			timer
		}{o, timer{o}}
	}
	return o
}

// objective times scoring; it is an AttributedObjective exactly when its
// inner objective is.
type objective struct {
	inner core.Objective
	t     *tracer
}

func (o *objective) Evaluate(p *profile.Profile) (e float64) {
	o.t.timed(spanObjective, "search", -1, func() { e = o.inner.Evaluate(p) })
	return e
}

func (o *objective) Describe() string { return o.inner.Describe() }

type attributed struct{ *objective }

func (a attributed) EvaluateAttributed(p *profile.Profile) (e float64, comps map[string]float64) {
	a.t.timed(spanObjective, "search", -1, func() {
		e, comps = a.inner.(core.AttributedObjective).EvaluateAttributed(p)
	})
	return e, comps
}

func (t *tracer) wrapObjective(inner core.Objective) core.Objective {
	o := &objective{inner: inner, t: t}
	if _, ok := inner.(core.AttributedObjective); ok {
		return attributed{o}
	}
	return o
}

// wrapHandler times every request through the service handler; the span's
// trace id is the request line.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: spanHTTP, Trace: r.Method + " " + r.URL.Path, Parent: -1, Start: start, End: t.now()})
	})
}

// sumSeconds totals the durations of the named spans.
func sumSeconds(spans []span, name string) (total float64, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.seconds()
			n++
		}
	}
	return total, n
}

// durations lists the named spans' durations in seconds, sorted.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	sort.Float64s(out)
	return out
}
