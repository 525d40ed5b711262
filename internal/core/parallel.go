package core

import (
	"sync"
	"sync/atomic"
)

// fanOut runs fn(0..n-1) across min(workers, n) goroutines that pull
// indices from one shared atomic counter, and returns when every call has
// finished. Execution order is unspecified, so callers needing
// deterministic results write into an index-addressed slice and reduce it
// in order afterwards. With workers <= 1 or n <= 1 it runs fn on the
// caller in index order — the sequential reference semantics.
//
// Both candidate fan-outs (the OS-DPOS rounds and the ColocateSync device
// probes) are barrier-shaped: a round's candidates are all evaluated before
// its reduce, so nothing ever needs to be queued behind work still in
// flight, and millisecond-scale DPOS evaluations make one atomic add per
// index free.
func fanOut(workers, n int, fn func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
