package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"fastt/internal/checkpoint"
	"fastt/internal/device"
	"fastt/internal/session"
	"fastt/internal/sim"
)

const (
	// checkpointEvery and reprofileEvery are the episodes' session settings.
	checkpointEvery = 5
	reprofileEvery  = 10
	// faultBackoff is the session's default first-retry backoff, which the
	// fault plan uses to place the link fault after the recovery.
	faultBackoff = 2 * time.Second
)

var (
	recoverModels      = []cellSpec{{"Inception_v3", 8}, {"GNMT", 8}, {"Transformer", 8}, {"RNNLM", 4}}
	recoverSmokeModels = []cellSpec{{"RNNLM", 4}}
	// recoverWarmup is the set-up's unmeasured episode. It is also one of
	// the measured models, so every run compares a measured episode with it
	// (a traced one, in traced runs).
	recoverWarmup = cellSpec{"RNNLM", 4}
)

// episodeRun is what an episode produced, minus wall-clock fields.
type episodeRun struct {
	run1, run2 *session.RunStats
	grow       *session.GrowReport
	summary    string // every simulated outcome, for comparing episodes
	samples    float64
	iters      int
}

type recoverWorkload struct {
	tr    *tracer
	smoke bool
	rng   *rand.Rand
	eps   []*cell
	iters [2]int // iterations before and after the grow

	cold, warm    cellTimes
	busyTime      time.Duration
	ops           int
	reference     string // the warm-up episode's summary
	referenceName string
	first         map[string]*episodeRun
	last          map[string]*episodeRun
	errs          []error
}

func newRecover(tr *tracer, smoke bool) *recoverWorkload {
	w := &recoverWorkload{tr: tr, smoke: smoke, iters: [2]int{100, 20}}
	if smoke {
		w.iters = [2]int{40, 10}
	}
	return w
}

func (w *recoverWorkload) prepare(seed int64) error {
	specs := recoverModels
	if w.smoke {
		specs = recoverSmokeModels
	}
	w.eps = w.eps[:0]
	for _, c := range specs {
		ep, err := buildCell(c)
		if err != nil {
			return err
		}
		w.eps = append(w.eps, ep)
	}
	w.rng = rand.New(rand.NewSource(seed))
	w.cold, w.warm = cellTimes{}, cellTimes{}
	w.busyTime, w.ops, w.errs = 0, 0, nil
	w.first, w.last = map[string]*episodeRun{}, map[string]*episodeRun{}
	ep, err := buildCell(recoverWarmup)
	if err != nil {
		return err
	}
	tr := w.tr
	w.tr = nil // the warm-up is the untraced reference
	run, err := w.runEpisode(ep, false)
	w.tr = tr
	if err != nil {
		return fmt.Errorf("warm-up %s: %w", ep.name, err)
	}
	w.reference, w.referenceName = run.summary, ep.name
	return nil
}

func (w *recoverWorkload) busy() time.Duration { return w.busyTime }

// round runs every episode once, in a seeded order.
func (w *recoverWorkload) round() (attempted, failed int) {
	t0 := time.Now()
	n := w.iters[0] + w.iters[1]
	for _, i := range w.rng.Perm(len(w.eps)) {
		ep := w.eps[i]
		attempted += n
		run, err := w.runEpisode(ep, true)
		if err != nil {
			failed += n
			w.errs = append(w.errs, fmt.Errorf("%s: %w", ep.name, err))
			fmt.Fprintf(os.Stderr, "fasttbench: recover %s: %v\n", ep.name, err)
			continue
		}
		w.ops += run.iters
		if _, ok := w.first[ep.name]; !ok {
			w.first[ep.name] = run
		}
		w.last[ep.name] = run
		w.tr.add("session.lost_iters", float64(run.run1.LostIterations+run.grow.LostIterations+run.run2.LostIterations))
		w.tr.add("session.recovery_sim_s", (run.run1.RecoveryTime + run.grow.RecoveryTime + run.run2.RecoveryTime).Seconds())
		recomputes := run.run1.Recomputed + run.run2.Recomputed
		if run.grow.Recomputed {
			recomputes++
		}
		w.tr.add("session.recomputes", float64(recomputes))
	}
	w.busyTime += time.Since(t0)
	return attempted, failed
}

// runEpisode bootstraps a session on a fault-injecting simulator, trains
// through a straggler, a device failure and a link degradation with
// periodic checkpoints and re-profiling, then grows the cluster back by one
// V100 and trains on.
func (w *recoverWorkload) runEpisode(ep *cell, record bool) (*episodeRun, error) {
	ctx := context.Background()
	exec, err := sim.DefaultFaultyExecutor(ep.cluster, nil)
	if err != nil {
		return nil, err
	}
	var calls []computed
	s, err := session.New(ep.cluster, traceExec(exec, w.tr), ep.train, session.Config{
		Seed:            sessionSeed,
		Sched:           searchOpts,
		Strategist:      coreStrategist(w.tr, &calls),
		CheckpointEvery: checkpointEvery,
		ReprofileEvery:  reprofileEvery,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rep, err := s.BootstrapCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	if record {
		w.cold.add(ep.name, time.Since(t0))
	}

	// Fault times are anchored to the post-bootstrap timeline and scaled by
	// the measured iteration time, so every model meets each fault at about
	// the same iteration: the straggler at 10% of the run, the failure at
	// 30%, the link fault 20% after the failure's recovery charges.
	iter, n := rep.FinalMeasured, w.iters[0]
	at := func(pct int) int64 { return int64(exec.Epoch() + iter*time.Duration(n*pct/100)) }
	restart := checkpoint.DefaultCostModel().RestartCost(ep.train.ComputeStats().ParamBytes)
	devices := ep.cluster.NumDevices()
	plan := &sim.FaultPlan{Faults: []sim.FaultSpec{
		{Kind: "straggler", AtNs: at(10), Device: 0, Factor: 1.25},
		{Kind: "device-failure", AtNs: at(30), Device: devices - 1},
		{Kind: "link-degrade", AtNs: at(50) + int64(restart+faultBackoff), From: 0, To: 1, Factor: 2},
	}}
	if err := exec.SetPlan(plan); err != nil {
		return nil, err
	}

	out := &episodeRun{}
	if out.run1, err = s.RunCtx(ctx, w.iters[0]); err != nil {
		return nil, fmt.Errorf("faulty run: %w", err)
	}
	if err := checkRecovery(s, out.run1, devices); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if out.grow, err = s.GrowCtx(ctx, device.JoinSpec{Class: device.ClassV100, Server: 0}); err != nil {
		return nil, fmt.Errorf("grow: %w", err)
	}
	if record {
		w.warm.add(ep.name, time.Since(t0))
	}
	if out.run2, err = s.RunCtx(ctx, w.iters[1]); err != nil {
		return nil, fmt.Errorf("run after grow: %w", err)
	}
	r1, g, r2 := out.run1, out.grow, out.run2
	useful := r1.Iterations - r1.LostIterations + r2.Iterations - g.LostIterations
	simTime := time.Duration(r1.Iterations)*r1.AvgIter + r1.RecoveryTime + g.RecoveryTime +
		time.Duration(r2.Iterations)*r2.AvgIter + r2.RecoveryTime
	out.samples = float64(ep.global*useful) / simTime.Seconds()
	out.iters = r1.Iterations + r2.Iterations
	out.summary = fmt.Sprintf("%s boot=%v/%d run1=%s grow={%d %d %v %v %v} run2=%s placement=%v",
		ep.name, rep.FinalMeasured, len(rep.Rounds), runSummary(r1),
		g.Devices, g.LostIterations, g.RecoveryTime, g.Measured, g.Recomputed,
		runSummary(r2), s.ActivePlacement())
	return out, nil
}

// runSummary renders a RunStats without its wall-clock field.
func runSummary(r *session.RunStats) string {
	return fmt.Sprintf("{%d %v %d %d %v %d %d %v %q}", r.Iterations, r.AvgIter, r.Reprofiles, r.Recomputed,
		r.FaultEvents, r.DeviceLosses, r.LostIterations, r.RecoveryTime, r.Degraded)
}

// checkRecovery checks the faulty run against the plan: exactly its one
// device failure was recovered, the active placement uses only the
// survivors, and no loss rolled back more than a checkpoint interval.
func checkRecovery(s *session.Session, r *session.RunStats, devices int) error {
	if r.DeviceLosses != 1 {
		return fmt.Errorf("%d device losses, the plan fails one device", r.DeviceLosses)
	}
	if n := s.Cluster().NumDevices(); n != devices-1 {
		return fmt.Errorf("%d devices after one loss on %d", n, devices)
	}
	for op, d := range s.ActivePlacement() {
		if d < 0 || d >= devices-1 {
			return fmt.Errorf("op %d placed on device %d of %d survivors", op, d, devices-1)
		}
	}
	if r.LostIterations > checkpointEvery*r.DeviceLosses {
		return fmt.Errorf("%d iterations lost to %d loss(es) with checkpoints every %d", r.LostIterations, r.DeviceLosses, checkpointEvery)
	}
	if r.Degraded != "" {
		return fmt.Errorf("recovery degraded to %s", r.Degraded)
	}
	return nil
}

func (w *recoverWorkload) report() (map[string]float64, int, error) {
	errs := append([]error(nil), w.errs...)
	var samples []float64
	for _, ep := range w.eps {
		last, ok := w.last[ep.name]
		if !ok {
			continue
		}
		if last.summary != w.first[ep.name].summary {
			errs = append(errs, fmt.Errorf("%s: episode outcome changed between rounds", ep.name))
		}
		if ep.name == w.referenceName && last.summary != w.reference {
			errs = append(errs, fmt.Errorf("%s: measured episode differs from the untraced warm-up episode", ep.name))
		}
		samples = append(samples, last.samples)
	}
	return map[string]float64{
		"cold_ms":           w.cold.geomeanOfMedians(),
		"warm_ms":           w.warm.geomeanOfMedians(),
		"sim_samples_per_s": geomean(samples),
	}, w.ops, errors.Join(errs...)
}

// layers returns the recover workload's per-layer metrics.
func (w *recoverWorkload) layers() (map[string]float64, error) {
	tr := w.tr
	return map[string]float64{
		"sim.runs_per_op":        tr.count("sim.run_ms") / float64(max(1, w.ops)),
		"sim.run_ms":             median(tr.get("sim.run_ms")),
		"sim.ops_per_s":          tr.sum("sim.run_ops") / (tr.sum("sim.run_ms") / 1000),
		"session.recompute_ms":   median(tr.get("core.seeded_ms")),
		"session.lost_iters":     mean(tr.get("session.lost_iters")),
		"session.recovery_sim_s": mean(tr.get("session.recovery_sim_s")),
		"session.recomputes":     mean(tr.get("session.recomputes")),
	}, nil
}

func (w *recoverWorkload) minRounds() int { return 1 }
