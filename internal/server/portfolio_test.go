package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"meshplace/internal/wmn"
)

func TestPortfolioSpecRoundTrip(t *testing.T) {
	// The default spec and explicit member lists round-trip through
	// ParseSpec/String like every other kind, with members canonicalized
	// to their full parameter sets.
	texts := []string{
		"portfolio",
		"portfolio:members=search|anneal,budget=100",
		"portfolio:members=search:phases=2;neighbors=2|adhoc:method=Near|ga:pop=8,budget=500,slices=3",
	}
	for _, text := range texts {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", spec.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("round trip of %q: %q != %q", text, spec.String(), again.String())
		}
	}

	// Members canonicalize: bare kinds expand to full default parameter
	// sets, case and whitespace normalize.
	spec, err := ParseSpec("portfolio:members= ADHOC | adhoc:Method=near ,budget=10,slices=1")
	if err != nil {
		t.Fatal(err)
	}
	want := "adhoc:method=HotSpot|adhoc:method=Near"
	if got := spec.Param("members"); got != want {
		t.Errorf("members canonicalized to %q, want %q", got, want)
	}

	bad := []string{
		"portfolio:members=search",                  // single member
		"portfolio:members=search|portfolio",        // nesting
		"portfolio:members=search|quantum",          // unknown member kind
		"portfolio:members=search:phases=0|anneal",  // invalid member param
		"portfolio:members=search|anneal,budget=0",  // budget below 1
		"portfolio:members=search|anneal,slices=-1", // negative slices
	}
	for _, text := range bad {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
}

// portfolioRace runs the portfolio coordinator for a spec at the given
// GOMAXPROCS, capturing the anytime curve the generic wrapper would
// record.
func portfolioRace(t *testing.T, eval *wmn.Evaluator, text string, seed uint64, procs int) (BackendResult, []AnytimePoint) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	spec, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	specs := portfolioMemberSpecs(spec)
	runs := make([]BackendSolve, len(specs))
	for i, ms := range specs {
		run, err := registry[ms.Kind()].New(ms)
		if err != nil {
			t.Fatalf("build member %d: %v", i, err)
		}
		runs[i] = run
	}
	rec := anytimeRecorder{}
	out, err := runPortfolio(context.Background(), eval, seed, BackendHooks{Stop: rec.hook}, specs, runs, spec.specInt("budget"), spec.specInt("slices"))
	if err != nil {
		t.Fatal(err)
	}
	return out, rec.finish(out.Evaluations, out.Metrics)
}

// TestPortfolioWorkerInvariance pins the determinism contract of the
// tentpole: because slices are measured in evaluation counts, the race —
// winner, per-member budgets, metrics and the anytime curve — is
// byte-identical whether the member goroutines share one processor or run
// on 8. Run under -race this also exercises the concurrent member
// coordination.
func TestPortfolioWorkerInvariance(t *testing.T) {
	in := testInstance(t)
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const text = "portfolio:members=search:phases=8;neighbors=4|anneal:steps=256|tabu:phases=8;neighbors=4|ga:generations=20;pop=8,budget=2000,slices=4"

	seq, seqCurve := portfolioRace(t, eval, text, 42, 1)
	par, parCurve := portfolioRace(t, eval, text, 42, 8)

	if !reflect.DeepEqual(seq.Solution, par.Solution) || seq.Metrics != par.Metrics || seq.Evaluations != par.Evaluations {
		t.Errorf("race at GOMAXPROCS 8 differs from GOMAXPROCS 1:\nseq: %v (%d evals)\npar: %v (%d evals)",
			seq.Metrics, seq.Evaluations, par.Metrics, par.Evaluations)
	}
	if !reflect.DeepEqual(seq.Portfolio, par.Portfolio) {
		t.Errorf("portfolio reports differ:\nseq: %+v\npar: %+v", seq.Portfolio, par.Portfolio)
	}
	if !reflect.DeepEqual(seqCurve, parCurve) {
		t.Errorf("anytime curves differ:\nseq: %v\npar: %v", seqCurve, parCurve)
	}
	// And the marshaled payloads — the serving currency — byte-match.
	a, err := json.Marshal(struct {
		P *PortfolioReport
		C []AnytimePoint
	}{seq.Portfolio, seqCurve})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		P *PortfolioReport
		C []AnytimePoint
	}{par.Portfolio, parCurve})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("marshaled race reports are not byte-identical across GOMAXPROCS")
	}
	if err := seq.Solution.Validate(in); err != nil {
		t.Errorf("winner solution invalid: %v", err)
	}
}

// checkAnytime asserts a well-formed curve: non-empty, evaluation counts
// non-decreasing, fitness non-decreasing, terminal point matching the
// result.
func checkAnytime(t *testing.T, curve []AnytimePoint, evals int, fitness float64) {
	t.Helper()
	if len(curve) == 0 {
		t.Fatal("empty anytime curve")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Evals < curve[i-1].Evals {
			t.Errorf("curve evals decrease at %d: %v", i, curve)
		}
		if curve[i].BestFitness < curve[i-1].BestFitness {
			t.Errorf("curve fitness decreases at %d: %v", i, curve)
		}
	}
	last := curve[len(curve)-1]
	if last.Evals != evals || last.BestFitness != fitness {
		t.Errorf("curve ends at (%d, %g), result is (%d, %g)", last.Evals, last.BestFitness, evals, fitness)
	}
}

// TestPortfolioSolveReport checks the full report of a completed race:
// budget accounting, winner selection and the anytime curve.
func TestPortfolioSolveReport(t *testing.T) {
	in := testInstance(t)
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec("portfolio:members=search:phases=4;neighbors=4|anneal:steps=128|adhoc:method=Near,budget=400,slices=4")
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSolver(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.(TracedSolver).SolveTraced(context.Background(), eval, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Error("unbounded solve reported truncation")
	}
	p := rep.Portfolio
	if p == nil {
		t.Fatal("portfolio solve carries no race report")
	}
	if p.Budget != 400 || p.Slices != 4 || len(p.Members) != 3 {
		t.Errorf("report shape: %+v", p)
	}
	if p.SlicesRun < 1 || p.SlicesRun > p.Slices {
		t.Errorf("slicesRun %d outside [1, %d]", p.SlicesRun, p.Slices)
	}
	if p.Winner < 0 || p.Winner >= len(p.Members) {
		t.Fatalf("winner index %d", p.Winner)
	}
	sum := 0
	for i, m := range p.Members {
		sum += m.Evaluations
		if m.BestFitness > p.Members[p.Winner].BestFitness {
			t.Errorf("member %d fitness %g beats the winner's %g", i, m.BestFitness, p.Members[p.Winner].BestFitness)
		}
		if m.Spec == "" {
			t.Errorf("member %d has no spec label", i)
		}
	}
	if sum != p.Evaluations || rep.Evaluations != p.Evaluations {
		t.Errorf("evaluations: members sum %d, report %d, solve %d", sum, p.Evaluations, rep.Evaluations)
	}
	if p.Members[p.Winner].BestFitness != rep.Metrics.Fitness {
		t.Errorf("winner fitness %g, returned metrics %g", p.Members[p.Winner].BestFitness, rep.Metrics.Fitness)
	}
	// The adhoc member costs one evaluation and always completes.
	if m := p.Members[2]; !m.Completed || m.Evaluations != 1 {
		t.Errorf("adhoc member: %+v, want completed after 1 evaluation", m)
	}
	checkAnytime(t, rep.Anytime, rep.Evaluations, rep.Metrics.Fitness)
	if err := rep.Solution.Validate(in); err != nil {
		t.Errorf("winner solution invalid: %v", err)
	}
}

const portfolioHTTPSpec = "portfolio:members=search:phases=4;neighbors=4|anneal:steps=128|ga:generations=10;pop=8,budget=600,slices=3"

// TestPortfolioOverHTTP is the e2e acceptance: POST /v1/solve answers a
// portfolio spec on both the sync and async paths with identical bytes,
// and a repeat is a byte-identical cache hit.
func TestPortfolioOverHTTP(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16, Workers: 2})
	in := testInstance(t)
	body := solveBody(t, in, portfolioHTTPSpec, 42)

	first := do(t, srv, "POST", "/v1/solve", body)
	if first.Code != http.StatusOK {
		t.Fatalf("sync portfolio solve = %d (body %s)", first.Code, first.Body.String())
	}
	raw := resultBytes(t, first.Body.Bytes())
	var res SolveResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Portfolio == nil {
		t.Fatal("served result carries no portfolio report")
	}
	if res.Truncated {
		t.Error("unbounded request served a truncated result")
	}
	checkAnytime(t, res.Anytime, res.Evaluations, res.Metrics.Fitness)
	if err := res.Solution.Validate(in); err != nil {
		t.Errorf("served solution invalid: %v", err)
	}

	second := do(t, srv, "POST", "/v1/solve", body)
	if second.Header().Get("X-Cache") != "hit" {
		t.Error("repeated portfolio request missed the cache")
	}
	if !bytes.Equal(raw, resultBytes(t, second.Body.Bytes())) {
		t.Error("cached portfolio result not byte-identical")
	}

	// Async path: same triple, same bytes.
	asyncBody := strings.Replace(solveBody(t, in, portfolioHTTPSpec, 43), `"seed":43`, `"seed":43,"mode":"async"`, 1)
	w := do(t, srv, "POST", "/v1/solve", asyncBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async portfolio solve = %d (body %s)", w.Code, w.Body.String())
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	view := pollJob(t, srv, accepted.Job.ID)
	if view.Status != JobDone {
		t.Fatalf("async portfolio job ended %s: %s", view.Status, view.Error)
	}
	sync := do(t, srv, "POST", "/v1/solve", solveBody(t, in, portfolioHTTPSpec, 43))
	if !bytes.Equal([]byte(view.Result), resultBytes(t, sync.Body.Bytes())) {
		t.Error("async portfolio result differs from sync bytes")
	}
}

// deadlineBody builds a /v1/solve request with a deadline (and optional
// mode) set.
func deadlineBody(t *testing.T, in *wmn.Instance, solver string, seed uint64, deadlineMs int64, mode string) string {
	t.Helper()
	req := map[string]any{"solver": solver, "seed": seed, "instance": in, "deadlineMs": deadlineMs}
	if mode != "" {
		req["mode"] = mode
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// heavyPortfolioSpec's first slice takes far longer than the test
// deadlines, so cancellation always lands mid-slice.
const heavyPortfolioSpec = "portfolio:members=search:phases=20000;neighbors=16|anneal:steps=400000|ga:generations=5000;pop=16,budget=400000,slices=4"

// TestDeadlineTruncatesToIncumbent pins the deadline semantics end to end:
// a deadline that expires mid-slice yields a 200 with the incumbent (never
// an error), X-Cache: miss, a well-formed anytime curve, truncated=true —
// and the truncated payload is never cached.
func TestDeadlineTruncatesToIncumbent(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16})
	in := testInstance(t)

	w := do(t, srv, "POST", "/v1/solve", deadlineBody(t, in, heavyPortfolioSpec, 42, 1, ""))
	if w.Code != http.StatusOK {
		t.Fatalf("deadline-bounded solve = %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	raw := resultBytes(t, w.Body.Bytes())
	var res SolveResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("1ms deadline on a multi-hundred-ms solve did not truncate")
	}
	if res.Portfolio == nil || res.Portfolio.SlicesRun < 1 {
		t.Fatalf("truncated race report: %+v (the first slice must always run)", res.Portfolio)
	}
	checkAnytime(t, res.Anytime, res.Evaluations, res.Metrics.Fitness)
	if err := res.Solution.Validate(in); err != nil {
		t.Errorf("incumbent solution invalid: %v", err)
	}

	// The truncated payload must not have been published: the cache still
	// holds nothing for this triple (or anything else).
	if stats := srv.Cache().Stats(); stats.Entries != 0 {
		t.Errorf("cache holds %d entries after a truncated solve, want 0", stats.Entries)
	}

	// Deadlines work on plain solvers too, not just the portfolio.
	w = do(t, srv, "POST", "/v1/solve", deadlineBody(t, in, "ga:generations=100000,pop=16", 7, 1, ""))
	if w.Code != http.StatusOK {
		t.Fatalf("deadline-bounded ga solve = %d (body %s)", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(resultBytes(t, w.Body.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("deadline-bounded ga solve not truncated")
	}
	checkAnytime(t, res.Anytime, res.Evaluations, res.Metrics.Fitness)

	// A negative deadline is a client error.
	w = do(t, srv, "POST", "/v1/solve", deadlineBody(t, in, "adhoc", 1, -5, ""))
	if w.Code != http.StatusBadRequest {
		t.Errorf("negative deadlineMs = %d, want 400", w.Code)
	}
}

// TestDeadlineAsyncJobReturnsIncumbent checks the async path: a
// deadline-bounded job finishes JobDone with a truncated payload, because
// the deadline hangs off Background and survives the returning request.
func TestDeadlineAsyncJobReturnsIncumbent(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16, Workers: 2})
	in := testInstance(t)
	w := do(t, srv, "POST", "/v1/solve", deadlineBody(t, in, heavyPortfolioSpec, 9, 50, "async"))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async deadline solve = %d (body %s)", w.Code, w.Body.String())
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	view := pollJob(t, srv, accepted.Job.ID)
	if view.Status != JobDone {
		t.Fatalf("deadline job ended %s: %s", view.Status, view.Error)
	}
	var res SolveResult
	if err := json.Unmarshal([]byte(view.Result), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("async 50ms deadline on a multi-hundred-ms solve did not truncate")
	}
	checkAnytime(t, res.Anytime, res.Evaluations, res.Metrics.Fitness)
}

// TestDeadlineSolveLeaksNoGoroutines is the -race leak guard: after
// deadline-expired portfolio solves, every member goroutine has been
// drained and the process settles back to its baseline goroutine count.
func TestDeadlineSolveLeaksNoGoroutines(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4})
	in := testInstance(t)

	// Warm the server's pool first so its long-lived workers are part
	// of the baseline, not counted as leaks.
	do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 1))
	baseline := runtime.NumGoroutine()

	for seed := uint64(0); seed < 3; seed++ {
		w := do(t, srv, "POST", "/v1/solve", deadlineBody(t, in, heavyPortfolioSpec, 100+seed, 1, ""))
		if w.Code != http.StatusOK {
			t.Fatalf("solve %d = %d", seed, w.Code)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
