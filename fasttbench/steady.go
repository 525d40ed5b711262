package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness command reads:
// each end-to-end metric's bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload k times, each in its own process with seeds
// 1..k, and prints every end-to-end metric's median, quartiles and spread
// (interquartile distance over the median) against the metric's bound in
// BENCHMARK.json. It also checks what must not vary: every run correct,
// the same share of failed operations, and sim_samples_per_s identical.
func runSteady(names []string, k, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read bounds (run from the repository root): %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, name := range names {
		var runs []result
		for seed := 1; seed <= k; seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			runs = append(runs, res)
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, seed, lastLine(out))
		}
		fmt.Printf("%s: %d runs of %ds\n", name, k, seconds)
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound {
				flag, ok = " OVER", false
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", m.Name, med, q1, q3, spread, m.Bound, flag)
		}
		sims := map[float64]bool{}
		shares := map[string]bool{}
		for _, r := range runs {
			sims[r.Metrics["sim_samples_per_s"].Value] = true
			shares[fmt.Sprintf("%d/%d", r.Failed*1000000/max(1, r.Attempted), 1000000)] = true
			if !r.Correct {
				fmt.Printf("  a run was not correct\n")
				ok = false
			}
		}
		if len(sims) != 1 || len(shares) != 1 {
			fmt.Printf("  sim_samples_per_s took %d values, the failed share %d\n", len(sims), len(shares))
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("not steady")
	}
	return nil
}

// lastLine returns the last non-empty line of a process's output.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
