package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/runtime"
	"fastt/internal/strategy"
)

// tracer collects per-layer samples in memory during a traced run. Every
// method is a no-op on a nil tracer, so the untraced path carries no
// timing calls beyond a nil check.
type tracer struct {
	mu      sync.Mutex
	samples map[string][]float64
	// allocs enables heap-allocation sampling around search calls; only
	// single-threaded workloads set it, since the counter is process-wide.
	allocs bool
	// inner accumulates the wall time spent inside strategist and executor
	// calls, so a session's own time is its wall time minus this.
	inner atomic.Int64
}

func newTracer(allocs bool) *tracer {
	return &tracer{samples: make(map[string][]float64), allocs: allocs}
}

// add records one sample of a named quantity.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// get returns a copy of a named sample list.
func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

func (t *tracer) sum(name string) float64 {
	var s float64
	for _, v := range t.get(name) {
		s += v
	}
	return s
}

func (t *tracer) count(name string) float64 { return float64(len(t.get(name))) }

// start returns the start time of a timed call (zero when not tracing).
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop records the milliseconds since t0 under name.
func (t *tracer) stop(name string, t0 time.Time) {
	if t == nil {
		return
	}
	t.add(name, ms(time.Since(t0)))
}

// innerTime is the total time spent inside the wrapped seams so far.
func (t *tracer) innerTime() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.inner.Load())
}

// allocBytes returns the process's cumulative heap allocation when
// allocation sampling is on, else 0.
func (t *tracer) allocBytes() uint64 {
	if t == nil || !t.allocs {
		return 0
	}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.TotalAlloc
}

// tracedExec wraps the runtime.Executor handed to session.New and times
// every Run. It adds no state of its own, so a traced episode runs exactly
// the same iterations as an untraced one.
type tracedExec struct {
	inner runtime.Executor
	tr    *tracer
}

// tracedFaultyExec is tracedExec for a backend that can shrink and grow: it
// forwards Shrink, Grow and Advance and re-wraps the executors they return,
// so the session's recovery and elastic paths stay traced.
type tracedFaultyExec struct {
	tracedExec
}

var (
	_ runtime.DegradableExecutor = (*tracedFaultyExec)(nil)
	_ runtime.GrowableExecutor   = (*tracedFaultyExec)(nil)
)

// traceExec wraps exec for tracer tr, keeping its capabilities; with a nil
// tracer it returns exec itself.
func traceExec(exec runtime.Executor, tr *tracer) runtime.Executor {
	if tr == nil {
		return exec
	}
	_, deg := exec.(runtime.DegradableExecutor)
	_, grow := exec.(runtime.GrowableExecutor)
	if deg && grow {
		return &tracedFaultyExec{tracedExec{inner: exec, tr: tr}}
	}
	return &tracedExec{inner: exec, tr: tr}
}

// Run implements runtime.Executor.
func (x *tracedExec) Run(g *graph.Graph, art *strategy.Artifact, cfg runtime.Config) (*runtime.Result, error) {
	t0 := time.Now()
	res, err := x.inner.Run(g, art, cfg)
	d := time.Since(t0)
	x.tr.inner.Add(int64(d))
	x.tr.add("sim.run_ms", ms(d))
	x.tr.add("sim.run_ops", float64(g.NumOps()))
	return res, err
}

// Shrink implements runtime.DegradableExecutor.
func (x *tracedFaultyExec) Shrink(failed int) (runtime.Executor, *device.Cluster, error) {
	next, cluster, err := x.inner.(runtime.DegradableExecutor).Shrink(failed)
	if err != nil {
		return nil, nil, err
	}
	return traceExec(next, x.tr), cluster, nil
}

// Advance implements runtime.DegradableExecutor.
func (x *tracedFaultyExec) Advance(d time.Duration) {
	x.inner.(runtime.DegradableExecutor).Advance(d)
}

// Grow implements runtime.GrowableExecutor.
func (x *tracedFaultyExec) Grow(join device.JoinSpec) (runtime.Executor, *device.Cluster, *device.Device, error) {
	next, cluster, joined, err := x.inner.(runtime.GrowableExecutor).Grow(join)
	if err != nil {
		return nil, nil, nil, err
	}
	return traceExec(next, x.tr), cluster, joined, nil
}

// layerUnits lists every per-layer metric with its unit; the traced run
// prints all of them.
var layerUnits = map[string]string{
	"core.search_ms":          "ms",
	"core.searches_per_op":    "count",
	"core.evaluated":          "count",
	"core.pruned":             "count",
	"core.prune_ratio":        "ratio",
	"core.alloc_mb":           "MB",
	"core.colocate_ms":        "ms",
	"core.osdpos_ms":          "ms",
	"core.w2_speedup":         "x",
	"core.mispredict_ratio":   "ratio",
	"sim.runs_per_op":         "count",
	"sim.run_ms":              "ms",
	"sim.ops_per_s":           "op/s",
	"session.self_ms":         "ms",
	"session.recompute_ms":    "ms",
	"session.lost_iters":      "count",
	"session.recovery_sim_s":  "sim_s",
	"session.recomputes":      "count",
	"strategy.encode_ms":      "ms",
	"strategy.decode_ms":      "ms",
	"strategy.artifact_kb":    "KB",
	"strategy.fingerprint_ms": "ms",
	"graph.decode_ms":         "ms",
	"graph.decode_alloc_mb":   "MB",
	"graph.request_kb":        "KB",
	"validate.ms":             "ms",
	"serve.hit_handler_ms":    "ms",
	"serve.miss_handler_ms":   "ms",
	"serve.transport_ms":      "ms",
	"serve.miss_wait_ms":      "ms",
	"serve.hit_p99_ms":        "ms",
	"serve.hit_ratio":         "ratio",
	"serve.coalesced":         "count",
	"serve.searches":          "count",
}

// runTraced is the traced run. Each layer lives in one workload (core,
// session self time, strategy encoding and validate in search; graph
// decoding, fingerprinting and serve in serve; sim and the session's
// recovery loop in recover), so the traced run runs all three workloads
// with wrappers installed, a third of the measured time each, and prints
// every per-layer metric whatever --workload names. The traced passes'
// end-to-end figures go to standard error: against an untraced run they
// give the tracing overhead.
func runTraced(seed int64, d time.Duration) error {
	out := &result{Correct: true, Metrics: make(map[string]metric, len(layerUnits))}
	for _, name := range workloadNames {
		tr := newTracer(name == "search")
		res, w, err := runWorkload(name, seed, d/3, tr, false)
		if err != nil {
			return err
		}
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "traced %s: %s = %.4f %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
		vals, err := w.layers()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fasttbench: traced %s: check failed: %v\n", name, err)
			out.Correct = false
		}
		for k, v := range vals {
			unit, ok := layerUnits[k]
			if !ok {
				return fmt.Errorf("traced %s: unlisted per-layer metric %q", name, k)
			}
			out.Metrics[k] = metric{Value: v, Unit: unit}
		}
	}
	for k := range layerUnits {
		if _, ok := out.Metrics[k]; !ok {
			return fmt.Errorf("traced run produced no value for %s", k)
		}
	}
	return printResult(out)
}
