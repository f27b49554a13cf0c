package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"meshplace/internal/wmn"
)

// directPayload solves one triple with NewSolver(spec).SolveTraced on a
// fresh evaluator, outside any server, and marshals the canonical payload.
func directPayload(t *testing.T, in *wmn.Instance, text string, seed uint64) []byte {
	t.Helper()
	spec, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSolver(spec)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.(TracedSolver).SolveTraced(context.Background(), eval, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(SolveResult{
		Solver: spec, Seed: seed, Instance: in.Name, InstanceHash: HashInstance(in),
		Metrics: rep.Metrics, Solution: rep.Solution, Evaluations: rep.Evaluations,
		Anytime: rep.Anytime, Portfolio: rep.Portfolio, Truncated: rep.Truncated,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOneWorkerServesNestedSolvesWithoutDeadlock drives a server with a
// single worker through 8 concurrent requests over two instances, mixing
// sync and async, portfolio (member goroutines) and island-GA (fork-join)
// solves, with one triple sent twice. The one worker runs every solve while
// handlers and jobs wait outside it, so all 8 answer, each byte-identical
// to a direct solve, the duplicate computes once, and Close leaves no
// goroutine behind.
func TestOneWorkerServesNestedSolvesWithoutDeadlock(t *testing.T) {
	const (
		portfolio = "portfolio:members=search:phases=4;neighbors=2|anneal:steps=64|ga:generations=4;pop=8,budget=600,slices=3"
		islands   = "ga:generations=6,pop=8,islands=4,migrateevery=2"
	)
	a := testInstance(t)
	genB := wmn.DefaultGenConfig()
	genB.Name, genB.Width, genB.Height, genB.NumRouters, genB.NumClients, genB.Seed = "server-test-b", 32, 32, 10, 20, 11
	b, err := wmn.Generate(genB)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		in   *wmn.Instance
		spec string
		seed uint64
		mode string
	}
	calls := []call{
		{a, portfolio, 1, "sync"},
		{a, islands, 2, "async"},
		{a, islands, 3, "sync"},
		{a, portfolio, 1, "async"}, // duplicate of the first triple
		{b, portfolio, 4, "async"},
		{b, islands, 5, "sync"},
		{b, "search:phases=4,neighbors=2", 6, "async"},
		{b, portfolio, 7, "sync"},
	}

	bodies := make([]string, len(calls))
	for i, c := range calls {
		bodies[i] = solveBodyMode(t, c.in, c.spec, c.seed, c.mode)
	}

	baseline := runtime.NumGoroutine()
	srv := New(Config{CacheSize: 16, Workers: 1})
	recs := make([]*httptest.ResponseRecorder, len(calls))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = do(t, srv, "POST", "/v1/solve", body)
		}()
	}
	wg.Wait()

	got := make([][]byte, len(calls))
	for i, w := range recs {
		switch w.Code {
		case http.StatusOK:
			got[i] = resultBytes(t, w.Body.Bytes())
		case http.StatusAccepted:
			var accepted struct {
				Job JobView `json:"job"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
				t.Fatal(err)
			}
			view := pollJob(t, srv, accepted.Job.ID)
			if view.Status != JobDone {
				t.Fatalf("call %d: job ended %s: %s", i, view.Status, view.Error)
			}
			got[i] = view.Result
		default:
			t.Fatalf("call %d = %d (body %s)", i, w.Code, w.Body.String())
		}
	}

	for i, c := range calls {
		if want := directPayload(t, c.in, c.spec, c.seed); !bytes.Equal(got[i], want) {
			t.Errorf("call %d (%s seed %d, %s) differs from a direct solve", i, c.spec, c.seed, c.mode)
		}
	}
	if n := srv.Metrics().Computations; n != int64(len(calls)-1) {
		t.Errorf("computations = %d, want %d (the duplicate triple computed once)", n, len(calls)-1)
	}

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after Close: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
