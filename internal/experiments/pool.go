package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves the number of concurrent workers the config allows:
// one when Parallel is off, Workers when set, and one per available CPU
// otherwise.
func (c Config) workerCount() int {
	if !c.Parallel {
		return 1
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachIndexed runs fn(i) for every i in [0, n) as a fork-join: the
// caller and min(n, workers)-1 helper goroutines claim indices from a
// shared counter until none are left, and the call returns only after
// every claimed index has finished, so no goroutine outlives it. Each fn
// writes its result into slot i of caller-owned storage, so merged output
// is independent of scheduling; on failure the error with the lowest index
// is returned, making failures as deterministic as successes regardless of
// worker count. workers <= 1 runs every index on the calling goroutine.
//
// No fn ever waits for a queue slot, so fan-outs nest freely: an inner
// ForEachIndexed called from inside fn makes progress on its own caller.
func ForEachIndexed(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			errs[i] = fn(i)
		}
	}
	var helpers sync.WaitGroup
	for w := 1; w < min(n, workers); w++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			claim()
		}()
	}
	claim()
	helpers.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
