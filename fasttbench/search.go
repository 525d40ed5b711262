package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/optimal"
	"fastt/internal/placement"
	"fastt/internal/runtime"
	"fastt/internal/session"
	"fastt/internal/sim"
	"fastt/internal/strategy"
	"fastt/internal/validate"
)

// searchOpts is the option set `fastt compute` and `fastt serve` search
// with. One worker keeps a strategy's candidate work identical on every
// run and leaves the second core to the Go runtime and the load generator.
var searchOpts = core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: 1}

// sessionSeed seeds every session's profiling jitter. It is fixed, not
// taken from --seed, so the computed strategies (and sim_samples_per_s)
// are the same in every run.
const sessionSeed = 1

// verifyIters is the number of simulated iterations each verified artifact
// runs, as in `fastt compute`.
const verifyIters = 5

type cellSpec struct {
	model string
	gpus  int
}

var (
	cells = []cellSpec{
		{"Inception_v3", 8}, {"ResNet200", 8}, {"GNMT", 8}, {"Transformer", 8},
		{"RNNLM", 4}, {"VGG-19", 4}, {"Bert-large", 4}, {"AlexNet", 4},
	}
	// searchWarmup is the unmeasured warm-up pass, run once per set-up; the
	// smoke run measures the same two small cells.
	searchWarmup = []cellSpec{{"AlexNet", 4}, {"RNNLM", 4}}
)

// cell is one model × GPU count: the training graph, its cluster, and
// the cluster with one device fewer that the search's warm recompute
// targets.
type cell struct {
	name            string
	global          int
	train           *graph.Graph
	cluster, shrunk *device.Cluster
	exec, shrunkEx  runtime.Executor
}

// computed is one strategist call captured at the session seam: the
// strategy, the frozen estimator it was computed under, and its inputs.
type computed struct {
	st      *core.Strategy
	est     cost.Estimator
	g       *graph.Graph
	cluster *device.Cluster
	opts    core.Options
}

// cellRun is what one compute-and-verify operation produced.
type cellRun struct {
	art     *strategy.Artifact
	encoded []byte
	rep     *session.Report
	calls   []computed
	samples float64 // simulated samples/s of the verified artifact
	cluster *device.Cluster
}

type searchWorkload struct {
	tr    *tracer
	smoke bool
	rng   *rand.Rand
	cells []*cell

	cold, warm cellTimes
	busyTime   time.Duration
	ops        int
	first      map[string][2]*cellRun // first round's cold and warm runs
	last       map[string][2]*cellRun // latest round's
	errs       []error
}

func newSearch(tr *tracer, smoke bool) *searchWorkload {
	return &searchWorkload{tr: tr, smoke: smoke}
}

// buildCell builds a cell's training graph by the rule `fastt compute`
// applies (Sec. 5.2): the data-parallel graph when it runs without OOM,
// else the full-batch model graph.
func buildCell(c cellSpec) (*cell, error) {
	spec, err := models.ByName(c.model)
	if err != nil {
		return nil, err
	}
	cluster, err := device.NewCluster(1, c.gpus)
	if err != nil {
		return nil, err
	}
	shrunk, err := device.NewCluster(1, c.gpus-1)
	if err != nil {
		return nil, err
	}
	train, err := trainGraph(spec, cluster)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.model, err)
	}
	return &cell{
		name:     fmt.Sprintf("%s@%d", c.model, c.gpus),
		global:   spec.GlobalBatch,
		train:    train,
		cluster:  cluster,
		shrunk:   shrunk,
		exec:     sim.DefaultExecutor(cluster),
		shrunkEx: sim.DefaultExecutor(shrunk),
	}, nil
}

func trainGraph(spec models.Spec, cluster *device.Cluster) (*graph.Graph, error) {
	n := cluster.NumDevices()
	m, err := spec.Build(max(1, spec.GlobalBatch/n))
	if err != nil {
		return nil, err
	}
	dp, err := graph.BuildDataParallel(m, n)
	if err != nil {
		return nil, err
	}
	place, err := placement.DataParallel(dp, cluster)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cluster, kernels.NewDefaultOracle(cluster))
	if _, err := engine.Run(dp, place, sim.Config{}); err != nil {
		var oom *sim.OOMError
		if !errors.As(err, &oom) {
			return nil, err
		}
		full, err := spec.Build(spec.GlobalBatch)
		if err != nil {
			return nil, err
		}
		return graph.BuildDataParallel(full, 1)
	}
	return dp, nil
}

func (w *searchWorkload) prepare(seed int64) error {
	specs := cells
	if w.smoke {
		specs = searchWarmup
	}
	w.cells = w.cells[:0]
	for _, c := range specs {
		cell, err := buildCell(c)
		if err != nil {
			return err
		}
		w.cells = append(w.cells, cell)
	}
	w.rng = rand.New(rand.NewSource(seed))
	w.cold, w.warm = cellTimes{}, cellTimes{}
	w.busyTime, w.ops, w.errs = 0, 0, nil
	w.first, w.last = map[string][2]*cellRun{}, map[string][2]*cellRun{}
	tr := w.tr
	w.tr = nil // the warm-up leaves no samples
	defer func() { w.tr = tr }()
	for _, c := range searchWarmup {
		cell, err := buildCell(c)
		if err != nil {
			return err
		}
		if _, _, err := w.runCell(cell, false); err != nil {
			return fmt.Errorf("warm-up %s: %w", cell.name, err)
		}
	}
	return nil
}

func (w *searchWorkload) busy() time.Duration { return w.busyTime }

// round computes and verifies every cell once, cold on N GPUs and then
// seeded on N-1, in a seeded order.
func (w *searchWorkload) round() (attempted, failed int) {
	t0 := time.Now()
	for _, i := range w.rng.Perm(len(w.cells)) {
		cell := w.cells[i]
		attempted += 2
		cold, warm, err := w.runCell(cell, true)
		if err != nil {
			failed += 2
			w.errs = append(w.errs, fmt.Errorf("%s: %w", cell.name, err))
			fmt.Fprintf(os.Stderr, "fasttbench: search %s: %v\n", cell.name, err)
			continue
		}
		w.ops += 2
		pair := [2]*cellRun{cold, warm}
		if _, ok := w.first[cell.name]; !ok {
			w.first[cell.name] = pair
		}
		w.last[cell.name] = pair
	}
	w.busyTime += time.Since(t0)
	return attempted, failed
}

// runCell is one cell's two operations: a cold compute on N GPUs and the
// fault-recovery shape, a recompute on N-1 GPUs for the same graph seeded
// from the cold artifact. Each is verified as a deployment would consume
// it. The warm-up passes record=false.
func (w *searchWorkload) runCell(cell *cell, record bool) (cold, warm *cellRun, err error) {
	t0 := time.Now()
	cold, err = w.compute(cell, cell.cluster, cell.exec, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("cold compute: %w", err)
	}
	if record {
		w.cold.add(cell.name, time.Since(t0))
	}
	if err := w.verify(cell, cold, cell.exec); err != nil {
		return nil, nil, fmt.Errorf("verify cold: %w", err)
	}
	t0 = time.Now()
	warm, err = w.compute(cell, cell.shrunk, cell.shrunkEx, cold.art)
	if err != nil {
		return nil, nil, fmt.Errorf("warm compute: %w", err)
	}
	if record {
		w.warm.add(cell.name, time.Since(t0))
	}
	if err := w.verify(cell, warm, cell.shrunkEx); err != nil {
		return nil, nil, fmt.Errorf("verify warm: %w", err)
	}
	return cold, warm, nil
}

// compute bootstraps a session on the cluster, as `fastt compute` does,
// with the core search behind the session's Strategist seam.
func (w *searchWorkload) compute(cell *cell, cluster *device.Cluster, exec runtime.Executor, seed *strategy.Artifact) (*cellRun, error) {
	run := &cellRun{cluster: cluster}
	opts := searchOpts
	opts.Seed = seed
	s, err := session.New(cluster, traceExec(exec, w.tr), cell.train, session.Config{
		Seed:       sessionSeed,
		Sched:      opts,
		Strategist: coreStrategist(w.tr, &run.calls),
	})
	if err != nil {
		return nil, err
	}
	inner0 := w.tr.innerTime()
	t0 := w.tr.start()
	if run.rep, err = s.BootstrapCtx(context.Background()); err != nil {
		return nil, err
	}
	if w.tr != nil && seed == nil {
		w.tr.add("session.self_ms", ms(time.Since(t0)-(w.tr.innerTime()-inner0)))
	}
	art := *s.ActiveArtifact()
	art.Provenance.Model = cell.name
	run.art = &art
	return run, nil
}

// coreStrategist is the in-process search behind a session's Strategist
// seam. It freezes the estimator itself (ComputeStrategyCtx would freeze
// it anyway, so the result is the same) and appends each call to calls,
// which the correctness checks read; when tracing it also times the call.
func coreStrategist(tr *tracer, calls *[]computed) core.Strategist {
	return func(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		var a0 uint64
		if tr != nil {
			a0 = tr.allocBytes()
		}
		t0 := tr.start()
		snap := cost.ReadSnapshot(est)
		st, err := core.ComputeStrategyCtx(ctx, g, cluster, snap, opts)
		if tr != nil {
			d := time.Since(t0)
			tr.add("core.search_ms", ms(d))
			if opts.Seed != nil {
				tr.add("core.seeded_ms", ms(d))
			}
			if tr.allocs {
				tr.add("core.alloc_mb", float64(tr.allocBytes()-a0)/1e6)
			}
			tr.inner.Add(int64(time.Since(t0)))
			if st != nil {
				tr.add("core.evaluated", float64(st.Evaluated))
				tr.add("core.pruned", float64(st.Pruned))
			}
		}
		if err == nil {
			*calls = append(*calls, computed{st: st, est: snap, g: g, cluster: cluster, opts: opts})
		}
		return st, err
	}
}

// verify treats an artifact as a deployment would: encode it, read it
// back, validate it against the graph and cluster, and run simulated
// iterations of it.
func (w *searchWorkload) verify(cell *cell, run *cellRun, exec runtime.Executor) error {
	var buf bytes.Buffer
	t0 := w.tr.start()
	if err := run.art.WriteJSON(&buf); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	w.tr.stop("strategy.encode_ms", t0)
	w.tr.add("strategy.artifact_kb", float64(buf.Len())/1024)
	run.encoded = buf.Bytes()
	t0 = w.tr.start()
	back, err := strategy.ReadJSON(bytes.NewReader(run.encoded))
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	w.tr.stop("strategy.decode_ms", t0)
	t0 = w.tr.start()
	g, err := validate.ArtifactStrategy(back, cell.train, run.cluster, validate.Options{SkipMemory: true})
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	w.tr.stop("validate.ms", t0)
	avg, err := simulate(exec, g, back)
	if err != nil {
		return err
	}
	run.samples = float64(cell.global) / avg.Seconds()
	return nil
}

// simulate runs verifyIters iterations of an artifact with fixed jitter
// seeds and returns the mean iteration time.
func simulate(exec runtime.Executor, g *graph.Graph, art *strategy.Artifact) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < verifyIters; i++ {
		res, err := exec.Run(g, art, runtime.Config{Jitter: 0.02, Seed: int64(1 + i), EnforceOrder: true})
		if err != nil {
			return 0, fmt.Errorf("simulate: %w", err)
		}
		total += res.Makespan
	}
	return total / verifyIters, nil
}

func (w *searchWorkload) report() (map[string]float64, int, error) {
	var samples []float64
	errs := append([]error(nil), w.errs...)
	for _, cell := range w.cells {
		last, ok := w.last[cell.name]
		if !ok {
			continue
		}
		first := w.first[cell.name]
		for i, run := range last {
			label := fmt.Sprintf("%s %s", cell.name, [2]string{"cold", "warm"}[i])
			if err := checkRun(cell, run, i == 1); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", label, err))
			}
			if !bytes.Equal(run.encoded, first[i].encoded) || run.samples != first[i].samples {
				errs = append(errs, fmt.Errorf("%s: artifact or simulated speed changed between rounds", label))
			}
			samples = append(samples, run.samples)
		}
	}
	return map[string]float64{
		"cold_ms":           w.cold.geomeanOfMedians(),
		"warm_ms":           w.warm.geomeanOfMedians(),
		"sim_samples_per_s": geomean(samples),
	}, w.ops, errors.Join(errs...)
}

// checkRun checks one operation's outputs against properties of the method
// rather than stored copies of earlier output.
func checkRun(cell *cell, run *cellRun, seeded bool) error {
	n := run.cluster.NumDevices()
	for op, d := range run.art.Placement {
		if d < 0 || d >= n {
			return fmt.Errorf("op %d placed on device %d of %d", op, d, n)
		}
	}
	g, err := run.art.Materialize(cell.train)
	if err != nil {
		return err
	}
	if len(run.art.Order) > 0 {
		if err := checkTopological(g, run.art.Order); err != nil {
			return err
		}
	} else if run.art.Provenance.Origin == "fastt" {
		return errors.New("searched artifact has no execution order")
	}
	back, err := strategy.ReadJSON(bytes.NewReader(run.encoded))
	if err != nil {
		return err
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), run.encoded) {
		return errors.New("artifact written, read and written again is not byte-identical")
	}
	for _, r := range run.rep.Rounds {
		if seeded && r.Predicted > 0 && (!r.Seeded || r.Predicted > r.SeedBound) {
			return fmt.Errorf("round %d: seeded=%v, predicted %v above seed bound %v", r.Index, r.Seeded, r.Predicted, r.SeedBound)
		}
	}
	for i, c := range run.calls {
		if err := checkTheorem1(c); err != nil {
			return fmt.Errorf("search %d: %w", i+1, err)
		}
	}
	return nil
}

// checkTopological checks that order lists every op of g once and puts
// every edge's source before its destination.
func checkTopological(g *graph.Graph, order []int) error {
	if len(order) != g.NumOps() {
		return fmt.Errorf("order has %d ops, graph %d", len(order), g.NumOps())
	}
	pos := make([]int, g.NumOps())
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range order {
		if id < 0 || id >= len(pos) || pos[id] >= 0 {
			return fmt.Errorf("order entry %d (op %d) out of range or repeated", i, id)
		}
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] > pos[e.To] {
			return fmt.Errorf("order runs op %d before its input op %d", e.To, e.From)
		}
	}
	return nil
}

// checkTheorem1 checks a search result against the reference lower bound
// LB of its graph: LB <= predicted <= 2*LB + C_max (the paper's Theorem 1).
func checkTheorem1(c computed) error {
	res, err := optimal.Bound(c.st.Graph, c.cluster, c.est, optimal.BoundOptions{})
	if err != nil {
		return err
	}
	ranks, err := core.ComputeRanks(c.st.Graph, c.cluster, c.est)
	if err != nil {
		return err
	}
	cmax := core.MaxChainComm(c.st.Graph, ranks)
	if p := c.st.Predicted; p < res.LowerBound || p > 2*res.LowerBound+cmax {
		return fmt.Errorf("predicted %v outside [LB %v, 2*LB + C_max %v]", p, res.LowerBound, 2*res.LowerBound+cmax)
	}
	return nil
}

// layers returns the search workload's per-layer metrics. The separately
// timed calls replay the last round's cold searches on the same inputs:
// the colocation pass and OS-DPOS alone, and the whole search at one and
// at two workers.
func (w *searchWorkload) layers() (map[string]float64, error) {
	tr := w.tr
	var colocate, osdpos []float64
	var t1, t2 time.Duration
	var spec, mispred int
	var errs []error
	ctx := context.Background()
	for _, cell := range w.cells {
		last, ok := w.last[cell.name]
		if !ok {
			continue
		}
		for _, c := range last[0].calls {
			opts := c.opts
			t0 := time.Now()
			pins, _, err := core.ColocateSyncCtx(ctx, c.g, c.cluster, c.est, opts)
			colocate = append(colocate, ms(time.Since(t0)))
			if err != nil {
				errs = append(errs, err)
				continue
			}
			opts.Pinned = pins
			t0 = time.Now()
			if _, err := core.OSDPOSCtx(ctx, c.g, c.cluster, c.est, opts); err != nil {
				errs = append(errs, err)
			}
			osdpos = append(osdpos, ms(time.Since(t0)))

			one, two := c.opts, c.opts
			two.Workers = 2
			t0 = time.Now()
			a, err1 := core.ComputeStrategyCtx(ctx, c.g, c.cluster, c.est, one)
			t1 += time.Since(t0)
			t0 = time.Now()
			b, err2 := core.ComputeStrategyCtx(ctx, c.g, c.cluster, c.est, two)
			t2 += time.Since(t0)
			if err := errors.Join(err1, err2); err != nil {
				errs = append(errs, err)
				continue
			}
			spec += b.Speculated
			mispred += b.Mispredicted
			ja, _ := json.Marshal(&a.Artifact)
			jb, _ := json.Marshal(&b.Artifact)
			if !bytes.Equal(ja, jb) {
				errs = append(errs, fmt.Errorf("%s: strategy differs between one and two workers", cell.name))
			}
		}
	}
	evaluated, pruned := tr.sum("core.evaluated"), tr.sum("core.pruned")
	out := map[string]float64{
		"core.search_ms":        median(tr.get("core.search_ms")),
		"core.searches_per_op":  tr.count("core.search_ms") / float64(max(1, w.ops)),
		"core.evaluated":        mean(tr.get("core.evaluated")),
		"core.pruned":           mean(tr.get("core.pruned")),
		"core.prune_ratio":      pruned / max(1, evaluated+pruned),
		"core.alloc_mb":         mean(tr.get("core.alloc_mb")),
		"core.colocate_ms":      median(colocate),
		"core.osdpos_ms":        median(osdpos),
		"core.w2_speedup":       t1.Seconds() / max(1e-9, t2.Seconds()),
		"core.mispredict_ratio": float64(mispred) / float64(max(1, spec)),
		"session.self_ms":       median(tr.get("session.self_ms")),
		"strategy.encode_ms":    median(tr.get("strategy.encode_ms")),
		"strategy.decode_ms":    median(tr.get("strategy.decode_ms")),
		"strategy.artifact_kb":  mean(tr.get("strategy.artifact_kb")),
		"validate.ms":           median(tr.get("validate.ms")),
	}
	return out, errors.Join(errs...)
}

func (w *searchWorkload) minRounds() int { return 1 }
