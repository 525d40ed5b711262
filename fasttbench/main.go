// Command fasttbench is the repository's end-to-end benchmark. It measures
// the FastT reproduction from outside, by timing calls into its public
// functions, on three workloads:
//
//   - search:  offline strategy computation, the way `fastt compute` does it
//   - serve:   the strategy service behind its HTTP handler on loopback
//   - recover: training episodes with injected faults, recovery and grow
//
// Usage (from the repository root):
//
//	bash fasttbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
//	bash fasttbench/run.sh --workload serve --trace 1      # per-layer metrics
//	bash fasttbench/run.sh --workload all --steady 5       # steadiness table
//	bash fasttbench/run.sh --workload all --smoke          # few-second check
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, gathered through timing wrappers at the program's
// public seams. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// workload is one benchmark input set. A run calls prepare setupReps times,
// then round until the measured time is used up (always whole rounds, so
// every run attempts the same operations in the same proportions), then
// report.
type workload interface {
	// prepare builds the inputs from the seed and runs the unmeasured
	// warm-up. It may be called more than once; each call starts afresh.
	prepare(seed int64) error
	// round runs one whole round of operations and returns how many it
	// attempted and how many failed.
	round() (attempted, failed int)
	// report checks the outputs of every round and returns the end-to-end
	// metrics that only the workload can compute (cold_ms, warm_ms,
	// sim_samples_per_s) plus the operation count ops_per_s divides by.
	report() (metrics map[string]float64, ops int, err error)
	// busy is the measured wall time of all rounds so far; workloads that
	// restart a service between rounds leave the restart out.
	busy() time.Duration
	// minRounds is the number of rounds a run makes however short it is.
	minRounds() int
	// layers returns the per-layer metrics of a traced run.
	layers() (map[string]float64, error)
}

// newWorkload builds the named workload; tr is nil for untraced runs.
func newWorkload(name string, tr *tracer, smoke bool) (workload, error) {
	switch name {
	case "search":
		return newSearch(tr, smoke), nil
	case "serve":
		return newServe(tr, smoke), nil
	case "recover":
		return newRecover(tr, smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want search, serve or recover)", name)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"search", "serve", "recover"}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "search", "workload: search, serve, recover (or all with --smoke/--steady)")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured time per run (whole rounds; at least one)")
		traced  = flag.Int("trace", 0, "1: install timing wrappers at the seams and print the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run a few-second version of the workload with the same checks")
		steady  = flag.Int("steady", 0, "run the workload this many times (seeds 1..k) and print the spread of every end-to-end metric")
		cpuLoop = flag.Int("cpuloop", 0, "time a fixed SHA-256 loop this many times and print the host's spread")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var err error
	switch {
	case *cpuLoop > 0:
		runCPULoop(*cpuLoop)
	case *steady > 0:
		err = runSteady(names, *steady, *seconds)
	case *smoke:
		err = runSmoke(names, *seed)
	case *traced == 1:
		err = runTraced(*seed, time.Duration(*seconds)*time.Second)
	default:
		if len(names) != 1 {
			err = fmt.Errorf("--workload all needs --smoke or --steady")
			break
		}
		var res *result
		if res, _, err = runWorkload(names[0], *seed, time.Duration(*seconds)*time.Second, nil, false); err == nil {
			err = printResult(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasttbench:", err)
		os.Exit(1)
	}
}

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":           "s",
	"ops_per_s":         "op/s",
	"cold_ms":           "ms",
	"warm_ms":           "ms",
	"sim_samples_per_s": "samples/s",
	"alloc_mb_per_op":   "MB/op",
}

// runWorkload runs one workload: set-up setupReps times, whole rounds for
// d, then the checks. It returns the end-to-end metrics and the workload,
// whose tracer a traced run reads.
func runWorkload(name string, seed int64, d time.Duration, tr *tracer, smoke bool) (*result, workload, error) {
	w, err := newWorkload(name, tr, smoke)
	if err != nil {
		return nil, nil, err
	}
	reps := setupReps
	if tr != nil || smoke {
		reps = 1
	}
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		goruntime.GC() // each set-up starts from the same heap, not the last one's garbage
		t0 := time.Now()
		if err := w.prepare(seed); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	res := &result{Correct: true}
	start := time.Now()
	rounds := 0
	for ; rounds < w.minRounds() || time.Since(start) < d; rounds++ {
		a, f := w.round()
		res.Attempted += a
		res.Failed += f
	}
	goruntime.ReadMemStats(&m1)
	vals, ops, err := w.report()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fasttbench: %s: check failed: %v\n", name, err)
		res.Correct = false
	}
	if ops < 1 {
		ops = 1
	}
	if vals == nil {
		vals = map[string]float64{}
	}
	vals["setup_s"] = median(setups)
	vals["ops_per_s"] = float64(ops) / w.busy().Seconds()
	vals["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(ops)
	fmt.Fprintf(os.Stderr, "fasttbench: %s: %d rounds, peak RSS %.0f MB, heap %.0f MB obtained from the OS\n",
		name, rounds, peakRSSMB(), float64(m1.HeapSys)/1e6)
	res.Metrics = make(map[string]metric, len(e2eUnits))
	for k, unit := range e2eUnits {
		res.Metrics[k] = metric{Value: vals[k], Unit: unit}
	}
	return res, w, nil
}

// runSmoke runs every named workload at smoke size and fails on any check.
func runSmoke(names []string, seed int64) error {
	for _, n := range names {
		t0 := time.Now()
		res, _, err := runWorkload(n, seed, 0, nil, true)
		if err != nil {
			return err
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("smoke %s: correct=%v, %d of %d operations failed", n, res.Correct, res.Failed, res.Attempted)
		}
		fmt.Fprintf(os.Stderr, "smoke %s: ok, %d operations in %v\n", n, res.Attempted, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Println("smoke ok")
	return nil
}

func printResult(res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1e3
		}
	}
	return 0
}

// runCPULoop times a fixed SHA-256 loop n times and prints the spread of
// its wall and CPU times: the host's own noise, against which the
// benchmark's bounds are set.
func runCPULoop(n int) {
	var walls []float64
	buf := make([]byte, 1<<20)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum := sha256.Sum256(buf)
		for j := 0; j < 200; j++ {
			sum = sha256.Sum256(append(buf[:len(buf)-32], sum[:]...))
		}
		walls = append(walls, ms(time.Since(t0)))
	}
	q1, q3 := quartiles(walls)
	sort.Float64s(walls)
	fmt.Printf("cpu loop: %d trials, min %.1f ms, median %.1f ms, max %.1f ms, quartile spread %.3f of the median\n",
		n, walls[0], median(walls), walls[len(walls)-1], (q3-q1)/median(walls))
}
