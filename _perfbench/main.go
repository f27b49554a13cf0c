// Command perfbench is the placement service's benchmark. It drives one of
// three named workloads at the service's HTTP front door from a single
// process, verifies every answer, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// whose metrics are BENCHMARK.json's end_to_end list, or with -trace 1 its
// per_layer list. Run it from the repository root through run.sh; README.md
// describes the workloads, the metrics and which layer moves which.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"meshplace/internal/scenarios"
	"meshplace/internal/server"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-solve, fanout-race or warm-cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every request seed derives from it")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs an untraced and a traced window and reports per-layer metrics")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := bench(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
}

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDefs reads the metric lists the final JSON line must carry.
func loadDefs(path string) (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

// measured is one set-up-and-window pass of a workload.
type measured struct {
	setups []float64 // seconds per set-up
	set    *instanceSet
	svc    *service
	win    *window
}

// measure sets the workload up `setups` times, keeping the last set-up for
// the window, and tears it down after. Set-up covers instance generation,
// replica and listener start, journal open, and the set-up triples.
func measure(w *workload, p *plan, ans *answers, tr *tracer, seconds, setups int) (*measured, error) {
	m := &measured{}
	var g *generator
	for k := range setups {
		start := time.Now()
		set, err := generateInstances(w.scenarios)
		if err != nil {
			return nil, err
		}
		svc, err := startService(w, tr)
		if err != nil {
			return nil, err
		}
		g = &generator{plan: p, set: set, svc: svc, ans: ans, epoch: time.Now()}
		err = g.warm(w.setupTriples)
		m.setups = append(m.setups, time.Since(start).Seconds())
		if err != nil || k < setups-1 {
			svc.Close()
			if rmErr := svc.Remove(); err == nil {
				err = rmErr
			}
		}
		if err != nil {
			return nil, err
		}
	}
	m.set, m.svc = g.set, g.svc
	g.tr = tr
	win, err := g.run(seconds)
	g.svc.Close()
	if err != nil {
		g.svc.Remove()
		return nil, err
	}
	m.win = win
	return m, nil
}

func bench(o options) error {
	e2eDefs, layerDefs, err := loadDefs("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	p, err := newPlan(w, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Printf("meta commit=%s source=%s go=%s GOMAXPROCS=%d nproc=%d corpus=%s/seed=%d\n",
		commit(), sourceFingerprint(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), scenarios.Version, corpusSeed)

	ans := newAnswers()
	plain, err := measure(w, p, ans, nil, o.seconds, 3)
	if err != nil {
		return err
	}
	if err := plain.svc.Remove(); err != nil {
		return err
	}
	var traced *measured
	var tr *tracer
	var ls *layerSamples
	if o.trace == 1 {
		tr = newTracer()
		if traced, err = measure(w, p, ans, tr, o.seconds, 1); err != nil {
			return err
		}
		ls, err = replayLayers(p, traced.set, replaySample(traced.win, w), servedSolveNs(traced.win))
		if err == nil && w.cluster {
			err = replayJournals(ls, traced.svc.journalPaths)
		}
		if rmErr := traced.svc.Remove(); err == nil {
			err = rmErr
		}
		if err != nil {
			return err
		}
	}
	if err := verify(p, plain.set, ans); err != nil {
		return err
	}
	bad := ans.badTriples()
	fp := ans.fingerprint(resultsFPTriples)
	if fp == "" {
		fp = "n/a: the run answered too few triples"
	}

	r := report{bad: bad, defs: map[string]string{}}
	for _, d := range append(append([]metricDef(nil), e2eDefs...), layerDefs...) {
		r.defs[d.Name] = d.Unit
	}
	e2e := r.endToEnd("untraced window", plain)
	var te2e map[string]float64
	if o.trace == 1 {
		te2e = r.endToEnd("traced window", traced)
	}
	fmt.Printf("results_fp=%s (FNV-1a over triples 0..%d in triple order)\n", fp, resultsFPTriples-1)
	fmt.Printf("verify: %d distinct triples answered, %d failed verification\n", len(ans.m), len(bad))
	for _, t := range firstBad(bad, 5) {
		fmt.Printf("verify: triple %d: %s\n", t, bad[t])
	}

	metrics, defs := e2e, e2eDefs
	if o.trace == 1 {
		metrics, defs = r.perLayer(w, p, traced, te2e, e2e, tr, ls), layerDefs
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, r.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(r.spans), path)
	}

	out := map[string]any{}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is listed in BENCHMARK.json but not measured", d.Name)
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && len(bad) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// replaySample picks the first replayTriples triples the window answered
// for the first time, in triple order.
func replaySample(win *window, w *workload) []int {
	seen := map[int]bool{}
	var ts []int
	for _, o := range win.outs {
		if o.ok && o.triple >= w.setupTriples && !seen[o.triple] {
			seen[o.triple] = true
			ts = append(ts, o.triple)
		}
	}
	sort.Ints(ts)
	return ts[:min(len(ts), replayTriples)]
}

// servedSolveNs maps each triple the window computed to its served
// solve time.
func servedSolveNs(win *window) map[int]int64 {
	out := map[int]int64{}
	for _, o := range win.outs {
		if o.ok && o.rm.CachePath == server.CacheMiss {
			out[o.triple] = o.rm.SolveNs
		}
	}
	return out
}

// firstBad lists up to n failed triples in triple order.
func firstBad(bad map[int]string, n int) []int {
	ids := make([]int, 0, len(bad))
	for t := range bad {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	return ids[:min(n, len(ids))]
}

// commit names the checked-out commit when the benchmark runs inside a git
// work tree, read from .git without running git.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceFingerprint is FNV-1a over the path and bytes of every Go source and
// go.mod under the working directory, so runs from checkouts that are not
// git work trees still name the code they measured.
func sourceFingerprint() string {
	h := fnv.New64a()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
