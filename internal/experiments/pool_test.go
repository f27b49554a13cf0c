package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
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

func TestWorkerCount(t *testing.T) {
	if got := (Config{Parallel: false, Workers: 8}).workerCount(); got != 1 {
		t.Errorf("sequential config resolves %d workers, want 1", got)
	}
	if got := (Config{Parallel: true, Workers: 5}).workerCount(); got != 5 {
		t.Errorf("explicit Workers resolves %d, want 5", got)
	}
	if got := (Config{Parallel: true}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default resolves %d workers, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := Default()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
}

// workersInvariantConfig is small enough for -race CI but still fans out
// 7 methods × 2 reps = 14 independent study tasks.
func workersInvariantConfig(workers int) Config {
	cfg := Quick()
	cfg.GA.Generations = 10
	cfg.GA.RecordEvery = 2
	cfg.SearchPhases = 8
	cfg.Reps = 2
	cfg.Parallel = true
	cfg.Workers = workers
	return cfg
}

// renderStudy captures every rendered artifact of a study as one byte
// stream, so equality means byte-identical user-visible output.
func renderStudy(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return s.RenderTable(b) },
		func(b *bytes.Buffer) error { return s.RenderFigure(b) },
		func(b *bytes.Buffer) error { return s.WriteTableCSV(b) },
		func(b *bytes.Buffer) error { return s.WriteFigureCSV(b) },
	} {
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRunStudyOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	one, err := RunStudy(StudyNormal, workersInvariantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunStudy(StudyNormal, workersInvariantConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Results, eight.Results) {
		t.Error("study results differ between 1 and 8 workers")
	}
	if !bytes.Equal(renderStudy(t, one), renderStudy(t, eight)) {
		t.Error("rendered study output not byte-identical between 1 and 8 workers")
	}
}

func TestRunSearchComparisonOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	one, err := RunSearchComparison(workersInvariantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunSearchComparison(workersInvariantConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Traces, eight.Traces) || !reflect.DeepEqual(one.Order, eight.Order) {
		t.Error("search comparison differs between 1 and 8 workers")
	}
	var a, b bytes.Buffer
	if err := one.WriteFigureCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := eight.WriteFigureCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("figure 4 CSV not byte-identical between 1 and 8 workers")
	}
}

// BenchmarkRunStudy measures the study hot loop at several worker counts;
// the 1-vs-GOMAXPROCS ratio is the speedup the pool buys.
func BenchmarkRunStudy(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Quick()
			cfg.Reps = 3
			cfg.Parallel = true
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunStudy(StudyNormal, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunStudiesMatchesRunStudy pins the study-level fan-out contract:
// batching studies over the shared pool leaves every per-study artifact
// byte-identical to its stand-alone run.
func TestRunStudiesMatchesRunStudy(t *testing.T) {
	cfg := workersInvariantConfig(8)
	ids := []StudyID{StudyNormal, StudyExponential}
	batch, err := RunStudies(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ids) {
		t.Fatalf("RunStudies returned %d studies, want %d", len(batch), len(ids))
	}
	for i, id := range ids {
		solo, err := RunStudy(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Results, batch[i].Results) {
			t.Errorf("study %s: batched results differ from stand-alone run", id)
		}
		if !bytes.Equal(renderStudy(t, solo), renderStudy(t, batch[i])) {
			t.Errorf("study %s: batched rendering not byte-identical to stand-alone run", id)
		}
	}
}
