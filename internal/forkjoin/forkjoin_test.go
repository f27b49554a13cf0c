package forkjoin

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachIndexedFillsAllSlots(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			out := make([]int, n)
			err := ForEachIndexed(n, workers, func(i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("slot %d = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestForEachIndexedReturnsLowestIndexError(t *testing.T) {
	failAt := map[int]bool{10: true, 37: true}
	for _, workers := range []int{1, 8} {
		err := ForEachIndexed(50, workers, func(i int) error {
			if failAt[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 10 failed" {
			t.Errorf("workers=%d: err = %v, want the index-10 error", workers, err)
		}
	}
}

func TestForEachIndexedEdgeCases(t *testing.T) {
	if err := ForEachIndexed(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	// More workers than tasks must not deadlock or skip tasks.
	out := make([]bool, 2)
	if err := ForEachIndexed(2, 64, func(i int) error { out[i] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !out[0] || !out[1] {
		t.Errorf("tasks skipped: %v", out)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestForEachIndexedOneWorkerStartsNoGoroutine(t *testing.T) {
	caller := goid()
	var ran []string // safe: every call runs on the caller
	if err := ForEachIndexed(20, 1, func(int) error { ran = append(ran, goid()); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 20 {
		t.Fatalf("ran %d indices, want 20", len(ran))
	}
	for i, id := range ran {
		if id != caller {
			t.Fatalf("index %d ran on goroutine %s, want the caller %s", i, id, caller)
		}
	}
}

func TestForEachIndexedMoreWorkersThanIndices(t *testing.T) {
	// workers is capped at n: three indices run on at most three
	// goroutines (the caller plus two helpers), however large workers is.
	var mu sync.Mutex
	seen := map[string]bool{}
	out := make([]int, 3)
	err := ForEachIndexed(3, 1000, func(i int) error {
		mu.Lock()
		seen[goid()] = true
		mu.Unlock()
		out[i] = i + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) > 3 {
		t.Errorf("3 indices ran on %d goroutines", len(seen))
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Errorf("slots = %v, want [1 2 3]", out)
	}
}

func TestForEachIndexedNoGoroutineOutlivesCall(t *testing.T) {
	base := runtime.NumGoroutine()
	var active, done atomic.Int64
	err := ForEachIndexed(64, 8, func(int) error {
		active.Add(1)
		defer active.Add(-1)
		runtime.Gosched()
		done.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := active.Load(); got != 0 {
		t.Fatalf("%d calls still running after return", got)
	}
	if got := done.Load(); got != 64 {
		t.Fatalf("%d calls finished, want 64", got)
	}
	// A helper signals completion just before it exits, so allow the
	// scheduler a moment to retire it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestForEachIndexedLowestIndexErrorWinsOverFirstFailure(t *testing.T) {
	// Index 37 fails first in time; index 10 fails only after it. The
	// reported error is still index 10's.
	failed37 := make(chan struct{})
	err := ForEachIndexed(50, 4, func(i int) error {
		switch i {
		case 10:
			<-failed37
			return fmt.Errorf("task %d failed", i)
		case 37:
			defer close(failed37)
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 10 failed" {
		t.Errorf("err = %v, want the index-10 error", err)
	}
}
