package server

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := newWorkerPool(4)
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		if !p.submit(func() { count.Add(1) }) {
			t.Fatalf("submit %d rejected on an open pool", i)
		}
	}
	p.close()
	if got := count.Load(); got != 100 {
		t.Errorf("ran %d tasks by close, want 100", got)
	}
	if p.submit(func() { count.Add(1) }) {
		t.Error("submit accepted on a closed pool")
	}
	if got := count.Load(); got != 100 {
		t.Errorf("closed pool ran a task: count %d, want 100", got)
	}
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	// One worker, many queued tasks: close must run them all before
	// returning, not drop the backlog.
	p := newWorkerPool(1)
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		p.submit(func() { count.Add(1) })
	}
	p.close()
	if got := count.Load(); got != 50 {
		t.Errorf("close drained %d tasks, want 50", got)
	}
}

func TestPoolDefaultsWorkersToGOMAXPROCS(t *testing.T) {
	p := newWorkerPool(0)
	defer p.close()
	if got := p.workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("newWorkerPool(0).workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
