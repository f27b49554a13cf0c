package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"meshplace/internal/rng"
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// corpusSeed pins the instances: every workload seed runs on the same
// corpus-v1 instances, so two seeds differ only in their request seeds and
// the cluster's hash routing stays fixed.
const corpusSeed = 1

// resultsFPTriples is how many triples, in triple order, results_fp covers.
// Every run completes at least this many, so the fingerprint depends on the
// seed and the code, never on how far a run got.
const resultsFPTriples = 256

// workload is one named traffic mix. See README.md for why each exists.
type workload struct {
	name      string
	scenarios []string
	specs     []string
	// movements are the neighborhood movements the specs drive; the
	// traced run replays Apply+Revert over the neighbors they propose.
	movements []string
	// cluster runs two cluster.Node replicas instead of one server.Server.
	cluster bool
	// setupTriples are solved during set-up, before the window: a warm-up
	// for the fresh-triple workloads, the read working set for
	// warm-cluster.
	setupTriples int
	// writeEvery > 0 makes 1 request in writeEvery a fresh triple and the
	// rest repeats of an earlier triple; 0 makes every request fresh.
	writeEvery int
}

// maxInFlight bounds the generator: at most two requests are outstanding,
// one per core of the two-core machine the benchmark was sized on.
const maxInFlight = 2

var workloads = []workload{
	{
		name:      "cold-solve",
		scenarios: []string{"v1-double-hotspots"},
		// The paper's swap search beside the two perturb-movement drivers,
		// lowered from their defaults so a 15 s window holds well over the
		// 1000 requests a p99 needs.
		specs:        []string{"search:phases=16,neighbors=8", "anneal:steps=1500", "hillclimb:steps=1024,noimprove=1024"},
		movements:    []string{"swap", "perturb"},
		setupTriples: 60,
	},
	{
		name:      "fanout-race",
		scenarios: baseScenarios(),
		specs:     []string{"portfolio:budget=250", "ga:generations=12,pop=8,islands=4,migrateevery=4"},
		// The portfolio's default members: search and tabu swap, anneal
		// perturbs.
		movements:    []string{"swap", "perturb"},
		setupTriples: 56,
	},
	{
		name:      "warm-cluster",
		scenarios: baseScenarios(),
		specs:     []string{"hillclimb:steps=256,noimprove=256"},
		movements: []string{"perturb"},
		cluster:   true,
		// 768 triples over seven instances split 4:3 between the replicas
		// (see clusterPeers): each replica owns more triples than its
		// 256-entry LRU holds, so reads split between LRU and journal hits.
		setupTriples: 768,
		writeEvery:   8,
	},
}

func baseScenarios() []string {
	var out []string
	for _, sc := range scenarios.Corpus(corpusSeed) {
		if sc.Scale == "base" {
			out = append(out, sc.Name)
		}
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// instanceSet is a workload's generated instances with the pieces every
// request needs precomputed: the JSON embedded in request bodies and the
// hash the serving layer keys results by.
type instanceSet struct {
	insts  []*wmn.Instance
	json   [][]byte
	hashes []string
}

func generateInstances(names []string) (*instanceSet, error) {
	byName := map[string]scenarios.Scenario{}
	for _, sc := range scenarios.Corpus(corpusSeed) {
		byName[sc.Name] = sc
	}
	scs := make([]scenarios.Scenario, len(names))
	for i, n := range names {
		sc, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("scenario %q is not in corpus %s", n, scenarios.Version)
		}
		scs[i] = sc
	}
	insts, err := scenarios.GenerateScenarios(scs, 0)
	if err != nil {
		return nil, err
	}
	set := &instanceSet{insts: insts}
	for _, in := range insts {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("encode instance %s: %w", in.Name, err)
		}
		set.json = append(set.json, b)
		set.hashes = append(set.hashes, server.HashInstance(in))
	}
	return set, nil
}

// triple is one (instance, spec, seed) computation.
type triple struct {
	inst int
	spec int
	seed uint64
}

// plan turns the workload seed into the request sequence. Triple t and
// request i are pure functions of (workload, seed, t or i), so a run's
// inputs never depend on timing; only how many of them a window gets
// through does.
type plan struct {
	w        *workload
	specs    []server.Spec
	ninst    int
	seedBase uint64
	readBase uint64
}

func newPlan(w *workload, seed uint64) (*plan, error) {
	p := &plan{
		w:        w,
		ninst:    len(w.scenarios),
		seedBase: rng.DeriveString(seed, "perfbench/"+w.name+"/seeds").Uint64(),
		readBase: rng.DeriveString(seed, "perfbench/"+w.name+"/reads").Uint64(),
	}
	for _, s := range w.specs {
		spec, err := server.ParseSpec(s)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		p.specs = append(p.specs, spec)
	}
	return p, nil
}

func (p *plan) triple(t int) triple {
	return triple{
		inst: t % p.ninst,
		spec: t % len(p.specs),
		seed: rng.Derive(p.seedBase, uint64(t)).Uint64(),
	}
}

// request returns the triple and the front door of window request i.
// Fresh-triple workloads number window triples after the set-up triples;
// warm-cluster writes one fresh triple every writeEvery requests and reads
// the rest uniformly from every triple issued before them.
func (p *plan) request(i int) (t, door int) {
	if p.w.cluster {
		door = i % 2
	}
	if p.w.writeEvery == 0 {
		return p.w.setupTriples + i, door
	}
	written := p.w.setupTriples + i/p.w.writeEvery
	if i%p.w.writeEvery == 0 {
		return written, door
	}
	return rng.Derive(p.readBase, uint64(i)).IntN(written + 1), door
}

// key is the serving layer's result-cache key of triple t, used only to
// attach Store spans to the handler span that caused them.
func (p *plan) key(set *instanceSet, t int) string {
	tr := p.triple(t)
	return set.hashes[tr.inst] + "|" + p.specs[tr.spec].String() + "|" + strconv.FormatUint(tr.seed, 10)
}

// body encodes the POST /v1/solve request for triple t. The instance JSON
// is spliced in pre-encoded so the generator spends its time on I/O.
func (p *plan) body(set *instanceSet, t int) []byte {
	tr := p.triple(t)
	spec, _ := json.Marshal(p.specs[tr.spec].String()) // a string always encodes
	b := make([]byte, 0, len(set.json[tr.inst])+128)
	b = append(b, `{"solver":`...)
	b = append(b, spec...)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, tr.seed, 10)
	b = append(b, `,"instance":`...)
	b = append(b, set.json[tr.inst]...)
	b = append(b, `,"mode":"sync"}`...)
	return b
}
