package server

import (
	"runtime"
	"sync"
)

// workerPool is the server's one bounded worker pool: a fixed number of
// goroutines draining an unbounded FIFO queue. Its only tasks are solves —
// a batch, or a direct solve when batching is off — and a task
// never waits on another task, so any worker count, one included, makes
// progress. Everything that waits for a solve (an HTTP handler, an async
// job) waits outside the pool.
//
// submit never blocks on busy workers, so producers stay responsive while
// tasks queue up behind the worker bound.
type workerPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	closed  bool
	workers int
	done    sync.WaitGroup // worker goroutines
}

// newWorkerPool starts a pool of the given number of workers; 0 or
// negative selects one per available CPU.
func newWorkerPool(workers int) *workerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.done.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.done.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		task()
	}
}

// submit enqueues a task and returns immediately; it reports false (and
// drops the task) when the pool is closed.
func (p *workerPool) submit(task func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.queue = append(p.queue, task)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// close stops accepting tasks, runs every queued one and waits for all
// workers to exit.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.done.Wait()
}
