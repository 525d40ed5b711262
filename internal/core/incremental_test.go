package core

import (
	"errors"
	"testing"
	"time"

	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
)

// evalClone evaluates one split candidate the reference way: full
// SplitOperation clone, fresh context, fresh lattice, from-scratch ranks.
func evalClone(t *testing.T, g *graph.Graph, opID int, dim graph.SplitDim, n int,
	cluster *device.Cluster, est *kernels.Oracle) (*Schedule, error) {
	t.Helper()
	cand, err := graph.SplitOperation(g, opID, dim, n)
	if err != nil {
		return nil, err
	}
	return dposFresh(cand, cluster, est, Options{}, 0, nil)
}

// evalOverlay evaluates the same candidate incrementally: copy-on-write
// overlay, patched context, extended lattice, delta ranks.
func evalOverlay(t *testing.T, baseCtx *scheduleContext, baseRanks *Ranks, anc []bool,
	opID int, dim graph.SplitDim, n int, cluster *device.Cluster, est *kernels.Oracle,
	baseLat *costLattice) (*graph.SplitOverlay, *Schedule, error) {
	t.Helper()
	ov, err := graph.NewSplitOverlay(baseCtx.g, opID, dim, n)
	if err != nil {
		return nil, nil, err
	}
	octx := overlayContext(baseCtx, ov)
	clat := extendLattice(baseLat, octx, cluster.Devices(), est)
	ranks := deltaRanksOverlay(baseCtx, baseRanks, octx, anc, clat)
	s, err := dposCtx(octx, cluster, clat, Options{}, ranks, 0, nil)
	releaseRanks(ranks)
	releaseLattice(clat)
	releaseOverlayContext(octx)
	return ov, s, err
}

// TestOverlayCandidateEquivalence is the catalog-wide property behind the
// incremental calculator: for every model and every legal (op, dim, n), the
// overlay-evaluated candidate schedule must be byte-identical — placement,
// start/finish, execution order, makespan — to the SplitOperation-clone
// schedule under the overlay's CloneID mapping, and both paths must agree
// on which candidates are infeasible.
func TestOverlayCandidateEquivalence(t *testing.T) {
	const devices = 3
	cluster, err := device.SingleServer(devices)
	if err != nil {
		t.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	for _, spec := range models.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Build(2)
			if err != nil {
				t.Fatal(err)
			}
			baseCtx, err := contextFor(g)
			if err != nil {
				t.Fatal(err)
			}
			baseLat := latticeFor(baseCtx, cluster, est, Options{})
			baseRanks := computeRanksCtx(baseCtx, baseLat)
			defer releaseRanks(baseRanks)

			// Under -race (tier 2 runs -race -short) a full sweep is too
			// slow; stride over the splittable ops instead.
			stride := 1
			if testing.Short() {
				stride = 7
			}
			tested := 0
			next := 0
			for opID := 0; opID < g.NumOps(); opID++ {
				dims := g.Op(opID).SplittableDims()
				if len(dims) == 0 {
					continue
				}
				if next > 0 {
					next--
					continue
				}
				next = stride - 1
				var anc []bool
				for _, dim := range dims {
					for n := 2; n <= devices; n++ {
						cs, cerr := evalClone(t, g, opID, dim, n, cluster, est)
						if anc == nil {
							anc = ancestorsOf(baseCtx, opID)
						}
						ov, os, oerr := evalOverlay(t, baseCtx, baseRanks, anc,
							opID, dim, n, cluster, est, baseLat)
						if (cerr == nil) != (oerr == nil) {
							t.Fatalf("op %d %s n=%d: clone err %v, overlay err %v",
								opID, dim, n, cerr, oerr)
						}
						if cerr != nil {
							continue
						}
						tested++
						compareCandidateSchedules(t, ov, os, cs, opID, dim, n)
						releaseSchedule(cs)
						releaseSchedule(os)
					}
				}
			}
			if tested == 0 {
				t.Fatalf("%s: no candidate was legal; property untested", spec.Name)
			}
		})
	}
}

func compareCandidateSchedules(t *testing.T, ov *graph.SplitOverlay,
	os, cs *Schedule, opID int, dim graph.SplitDim, n int) {
	t.Helper()
	if os.Makespan != cs.Makespan {
		t.Fatalf("op %d %s n=%d: makespan overlay %v, clone %v",
			opID, dim, n, os.Makespan, cs.Makespan)
	}
	dead := ov.Target().ID
	for id := 0; id < ov.NumOps(); id++ {
		if id == dead {
			continue
		}
		cid := ov.CloneID(id)
		if os.Placement[id] != cs.Placement[cid] {
			t.Fatalf("op %d %s n=%d: placement of %q: overlay dev %d, clone dev %d",
				opID, dim, n, ov.Op(id).Name, os.Placement[id], cs.Placement[cid])
		}
		if os.Start[id] != cs.Start[cid] || os.Finish[id] != cs.Finish[cid] {
			t.Fatalf("op %d %s n=%d: timing of %q: overlay [%v,%v], clone [%v,%v]",
				opID, dim, n, ov.Op(id).Name,
				os.Start[id], os.Finish[id], cs.Start[cid], cs.Finish[cid])
		}
	}
	// The execution order must match once the tombstone is dropped: live
	// overlay ops mapped through CloneID reproduce the clone order exactly
	// (which also pins the relative priorities of every live op).
	pos := 0
	for _, id := range os.Order {
		if id == dead {
			continue
		}
		if want := cs.Order[pos]; ov.CloneID(id) != want {
			t.Fatalf("op %d %s n=%d: order position %d: overlay op %d (-> %d), clone op %d",
				opID, dim, n, pos, id, ov.CloneID(id), want)
		}
		pos++
	}
	if pos != len(cs.Order) {
		t.Fatalf("op %d %s n=%d: live order length %d, clone %d",
			opID, dim, n, pos, len(cs.Order))
	}
}

// TestOSDPOSIncrementalEquivalence is the end-to-end guarantee: overlays
// and bound-based pruning are pure accelerations. Every combination of
// {incremental, clone} x {pruning, no pruning} x worker count must return
// the identical strategy — split list, makespan, placement, order — and
// pruning must be inert on the accepted split list while actually firing
// (Pruned > 0 somewhere across the catalog).
func TestOSDPOSIncrementalEquivalence(t *testing.T) {
	const gpus = 4
	cluster, err := device.SingleServer(gpus)
	if err != nil {
		t.Fatal(err)
	}
	oracle := kernels.NewDefaultOracle(cluster)
	catalog := models.Catalog()
	if testing.Short() {
		catalog = catalog[:3]
	}
	totalPruned := 0
	for _, spec := range catalog {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Build(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.BuildDataParallel(m, gpus)
			if err != nil {
				t.Fatal(err)
			}
			base := Options{MaxSplitOps: 2, MaxSyncGroups: 2}

			type variant struct {
				name string
				opts Options
			}
			ref := base
			ref.disableIncremental = true
			ref.DisablePruning = true
			ref.Workers = 1
			variants := []variant{
				{"clone/noprune/w8", with(base, true, true, 8)},
				{"clone/prune/w1", with(base, true, false, 1)},
				{"overlay/noprune/w1", with(base, false, true, 1)},
				{"overlay/prune/w1", with(base, false, false, 1)},
				{"overlay/prune/w8", with(base, false, false, 8)},
			}
			want, err := OSDPOS(g, cluster, oracle, ref)
			if err != nil {
				t.Fatalf("reference OSDPOS: %v", err)
			}
			if want.Pruned != 0 {
				t.Fatalf("pruning disabled but Pruned=%d", want.Pruned)
			}
			for _, v := range variants {
				got, err := OSDPOS(g, cluster, oracle, v.opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if len(got.Splits) != len(want.Splits) {
					t.Fatalf("%s: split list %v, want %v", v.name, got.Splits, want.Splits)
				}
				for i := range want.Splits {
					if got.Splits[i] != want.Splits[i] {
						t.Fatalf("%s: split %d is %v, want %v",
							v.name, i, got.Splits[i], want.Splits[i])
					}
				}
				if got.Schedule.Makespan != want.Schedule.Makespan {
					t.Errorf("%s: makespan %v, want %v",
						v.name, got.Schedule.Makespan, want.Schedule.Makespan)
				}
				if !equalInts(got.Schedule.Placement, want.Schedule.Placement) {
					t.Errorf("%s: placements differ", v.name)
				}
				if !equalInts(got.Schedule.Order, want.Schedule.Order) {
					t.Errorf("%s: orders differ", v.name)
				}
				if !equalInts(got.Schedule.Priorities, want.Schedule.Priorities) {
					t.Errorf("%s: priorities differ", v.name)
				}
				if v.opts.DisablePruning {
					if got.Pruned != 0 {
						t.Errorf("%s: pruning disabled but Pruned=%d", v.name, got.Pruned)
					}
					if got.Evaluated != want.Evaluated {
						t.Errorf("%s: Evaluated=%d, reference %d",
							v.name, got.Evaluated, want.Evaluated)
					}
				} else {
					if got.Evaluated > want.Evaluated {
						t.Errorf("%s: Evaluated=%d exceeds unpruned Evaluated=%d",
							v.name, got.Evaluated, want.Evaluated)
					}
					if v.opts.Workers <= 1 && got.Evaluated+got.Pruned > want.Evaluated {
						// The sequential static bound only ever aborts
						// candidates the unpruned pass would have counted.
						// The live bound of the concurrent path can also
						// abort would-be-infeasible candidates mid-run, so
						// the sum is not comparable there.
						t.Errorf("%s: Evaluated+Pruned=%d exceeds unpruned Evaluated=%d",
							v.name, got.Evaluated+got.Pruned, want.Evaluated)
					}
					totalPruned += got.Pruned
				}
			}
		})
	}
	if totalPruned == 0 {
		t.Error("bound-based pruning never fired across the catalog")
	}
}

func with(o Options, clone, noprune bool, workers int) Options {
	o.disableIncremental = clone
	o.DisablePruning = noprune
	o.Workers = workers
	return o
}

// TestRestMinIsValidLowerBound checks the pruning bound's soundness
// directly on scheduled graphs: for every op, the exit finish time is at
// least the op's finish plus RestMin — the inequality that makes pruning
// exact (a candidate aborted at Finish+RestMin >= bound could never have
// completed below the bound).
func TestRestMinIsValidLowerBound(t *testing.T) {
	cluster, err := device.SingleServer(3)
	if err != nil {
		t.Fatal(err)
	}
	est := kernels.NewDefaultOracle(cluster)
	for _, spec := range models.Catalog() {
		g, err := spec.Build(2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := contextFor(g)
		if err != nil {
			t.Fatal(err)
		}
		lat := latticeFor(ctx, cluster, est, Options{})
		ranks := computeRanksCtx(ctx, lat)
		sched, err := dposCtx(ctx, cluster, lat, Options{}, ranks, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.NumOps(); id++ {
			if lb := sched.Finish[id] + ranks.RestMin[id]; lb > sched.Makespan {
				t.Fatalf("%s: op %q violates bound: finish %v + restMin %v > makespan %v",
					spec.Name, g.Op(id).Name, sched.Finish[id], ranks.RestMin[id], sched.Makespan)
			}
		}
		releaseSchedule(sched)
		releaseRanks(ranks)
	}
}

// TestDPOSCtxPrunes pins the errPruned contract: with a bound at or below
// the achievable makespan the run aborts with errPruned, and with a bound
// above it the schedule completes untouched.
func TestDPOSCtxPrunes(t *testing.T) {
	g, est := diamond(t)
	c := clusterN(t, 2)
	ctx, err := contextFor(g)
	if err != nil {
		t.Fatal(err)
	}
	lat := latticeFor(ctx, c, est, Options{})
	ranks := computeRanksCtx(ctx, lat)
	defer releaseRanks(ranks)

	full, err := dposCtx(ctx, c, lat, Options{}, ranks, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Makespan
	releaseSchedule(full)

	if _, err := dposCtx(ctx, c, lat, Options{}, ranks, time.Nanosecond, nil); !errors.Is(err, errPruned) {
		t.Fatalf("tiny bound: err %v, want errPruned", err)
	}
	if _, err := dposCtx(ctx, c, lat, Options{}, ranks, want, nil); !errors.Is(err, errPruned) {
		t.Fatalf("bound == achievable makespan must prune (strict improvement required), got %v", err)
	}
	s, err := dposCtx(ctx, c, lat, Options{}, ranks, want+1, nil)
	if err != nil {
		t.Fatalf("loose bound: %v", err)
	}
	if s.Makespan != want {
		t.Fatalf("loose bound changed makespan: %v, want %v", s.Makespan, want)
	}
	releaseSchedule(s)
}
