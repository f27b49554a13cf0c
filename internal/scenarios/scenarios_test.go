package scenarios

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"meshplace/internal/dist"
	"meshplace/internal/geom"
	"meshplace/internal/wmn"
)

// -update regenerates the golden corpus hashes. Run it after an
// intentional corpus version bump, never to paper over a drift.
var update = flag.Bool("update", false, "rewrite the golden corpus hashes")

const goldenSeed = 1

func goldenPath() string {
	return filepath.Join("testdata", "corpus_"+Version+"_seed1.json")
}

// corpusHashes generates the corpus and returns name → instance hash in
// corpus order.
func corpusHashes(t *testing.T, workers int) map[string]string {
	t.Helper()
	instances, err := GenerateCorpus(goldenSeed, workers)
	if err != nil {
		t.Fatal(err)
	}
	scs := Corpus(goldenSeed)
	if len(instances) != len(scs) {
		t.Fatalf("GenerateCorpus returned %d instances for %d scenarios", len(instances), len(scs))
	}
	out := make(map[string]string, len(instances))
	for i, in := range instances {
		if in.Name != scs[i].Name {
			t.Fatalf("instance %d named %q, want %q", i, in.Name, scs[i].Name)
		}
		out[in.Name] = wmn.HashInstance(in)
	}
	return out
}

// TestGenerateCorpusGoldenHashes pins every corpus instance against the
// checked-in golden FNV hashes, at one worker and at eight — any change to
// a layout, a trace, the rng derivation or the dist samplers shows up here
// as a named diff, and scheduling can never leak into the output.
func TestGenerateCorpusGoldenHashes(t *testing.T) {
	got := corpusHashes(t, 1)

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d hashes", goldenPath(), len(got))
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("read golden hashes (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d hashes, corpus has %d", len(want), len(got))
	}
	for name, hash := range want {
		if got[name] != hash {
			t.Errorf("%s: hash %s, golden %s", name, got[name], hash)
		}
	}

	// Worker-count invariance: the same hashes must come out of a
	// parallel generation.
	parallel := corpusHashes(t, 8)
	for name, hash := range got {
		if parallel[name] != hash {
			t.Errorf("%s: 8-worker hash %s differs from 1-worker %s", name, parallel[name], hash)
		}
	}
}

func TestCorpusShape(t *testing.T) {
	scs := Corpus(goldenSeed)
	scales := familyScales()
	wantLayouts := []string{"uniform", "normal", "exponential", "weibull", "hotspots", "ring", "trace"}
	if len(scs) != len(scales)*len(wantLayouts) {
		t.Fatalf("corpus has %d scenarios, want %d", len(scs), len(scales)*len(wantLayouts))
	}
	i := 0
	for _, scale := range scales {
		for _, l := range wantLayouts {
			sc := scs[i]
			i++
			if sc.Scale != scale.label || sc.Layout != l {
				t.Fatalf("scenario %d is %s/%s, want %s/%s", i-1, sc.Scale, sc.Layout, scale.label, l)
			}
			if err := sc.Gen.Validate(); err != nil {
				t.Errorf("%s: %v", sc.Name, err)
			}
			if err := sc.Gen.ClientDist.Validate(); err != nil {
				t.Errorf("%s: %v", sc.Name, err)
			}
		}
	}
	// Distinct scenarios must not share generation seeds (they would
	// correlate radii across scenarios of equal router count).
	seeds := map[uint64]string{}
	for _, sc := range scs {
		if prev, dup := seeds[sc.Gen.Seed]; dup {
			t.Errorf("%s and %s share seed %d", prev, sc.Name, sc.Gen.Seed)
		}
		seeds[sc.Gen.Seed] = sc.Name
	}
}

// TestCorpusDensityPreserved pins the scale rule: router density (N/area)
// is constant across scales, so the topology regime carries over, and
// every scenario has three clients per router.
func TestCorpusDensityPreserved(t *testing.T) {
	base := -1.0
	for _, sc := range Corpus(goldenSeed) {
		density := float64(sc.Gen.NumRouters) / (sc.Gen.Width * sc.Gen.Height)
		if base < 0 {
			base = density
		}
		if density < base*0.9 || density > base*1.1 {
			t.Errorf("%s: router density %.5f deviates from %.5f", sc.Name, density, base)
		}
		if sc.Gen.NumClients != 3*sc.Gen.NumRouters {
			t.Errorf("%s: client/router ratio %d/%d, want 3:1", sc.Name, sc.Gen.NumClients, sc.Gen.NumRouters)
		}
	}
}

func TestDescribeMatchesCorpusAndParses(t *testing.T) {
	infos := Describe()
	scs := Corpus(42)
	if len(infos) != len(scs) {
		t.Fatalf("Describe() has %d entries, corpus %d", len(infos), len(scs))
	}
	for i, info := range infos {
		if info.Name != scs[i].Name {
			t.Errorf("entry %d named %q, want %q", i, info.Name, scs[i].Name)
		}
		spec, err := dist.ParseSpec(info.Dist)
		if err != nil {
			t.Errorf("%s: dist %q does not parse: %v", info.Name, info.Dist, err)
			continue
		}
		if spec != scs[i].Gen.ClientDist {
			t.Errorf("%s: catalog dist %v differs from corpus %v", info.Name, spec, scs[i].Gen.ClientDist)
		}
	}
}

func TestFilterScales(t *testing.T) {
	scs := Corpus(1)
	half := Filter(scs, "half")
	if len(half) != len(scs)/3 {
		t.Errorf("Filter(half) kept %d of %d", len(half), len(scs))
	}
	for _, sc := range half {
		if sc.Scale != "half" {
			t.Errorf("Filter(half) kept %s", sc.Name)
		}
	}
	if got := Filter(scs); len(got) != len(scs) {
		t.Errorf("Filter() dropped scenarios: %d of %d", len(got), len(scs))
	}
	if got := Filter(scs, "bogus"); len(got) != 0 {
		t.Errorf("Filter(bogus) kept %d scenarios", len(got))
	}
}

func TestCorpusSeedSensitivity(t *testing.T) {
	a, err := GenerateCorpus(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCorpus(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if wmn.HashInstance(a[i]) == wmn.HashInstance(b[i]) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of %d instances identical across different corpus seeds", same, len(a))
	}
}

// TestFamilyScalesShape pins the paper family inside the corpus: three
// scales × the four §5.1 distributions, each spec valid, each kind once
// per scale, and every family scenario named uniquely.
func TestFamilyScalesShape(t *testing.T) {
	kinds := make(map[dist.Kind]int)
	for _, scale := range familyScales() {
		for _, spec := range familyDistributions(scale.side) {
			if err := spec.Validate(); err != nil {
				t.Errorf("%s/%s: %v", scale.label, spec.Kind, err)
			}
			kinds[spec.Kind]++
		}
	}
	for _, k := range dist.PaperKinds() {
		if kinds[k] != len(familyScales()) {
			t.Errorf("distribution %v appears %d times, want %d", k, kinds[k], len(familyScales()))
		}
	}
	if len(kinds) != len(dist.PaperKinds()) {
		t.Errorf("family holds %d kinds, want the %d paper kinds", len(kinds), len(dist.PaperKinds()))
	}
	names := map[string]bool{}
	for _, sc := range Corpus(goldenSeed) {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
	}
	for _, scale := range familyScales() {
		for _, k := range dist.PaperKinds() {
			if name := Version + "-" + scale.label + "-" + string(k); !names[name] {
				t.Errorf("corpus lacks family scenario %s", name)
			}
		}
	}
}

// TestPaperLayoutDistributionsBuild pins the client distributions of the
// paper's three studies: each base-scale paper layout's spec builds a
// sampler on its scenario's area, and a layout the corpus does not hold
// matches no scenario.
func TestPaperLayoutDistributionsBuild(t *testing.T) {
	byLayout := map[string]Scenario{}
	for _, sc := range Filter(Corpus(goldenSeed), "base") {
		byLayout[sc.Layout] = sc
	}
	for _, l := range []string{"normal", "exponential", "weibull"} {
		sc, ok := byLayout[l]
		if !ok {
			t.Fatalf("no base-scale %s scenario", l)
		}
		if sc.Gen.ClientDist.Kind != dist.Kind(l) {
			t.Errorf("%s: client distribution %v, want %s", sc.Name, sc.Gen.ClientDist.Kind, l)
		}
		if _, err := sc.Gen.ClientDist.Build(geom.Area(sc.Gen.Width, sc.Gen.Height)); err != nil {
			t.Errorf("%s: spec %v does not build: %v", sc.Name, sc.Gen.ClientDist, err)
		}
	}
	if _, ok := byLayout["pareto"]; ok {
		t.Error("an unknown layout matched a scenario")
	}
}

// TestGenerateCorpusValidAndRepeatable pins corpus generation for a seed
// other than the golden one: every instance validates, and the same seed
// regenerates identical instances.
func TestGenerateCorpusValidAndRepeatable(t *testing.T) {
	instances, err := GenerateCorpus(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != len(Corpus(7)) {
		t.Fatalf("%d instances for %d scenarios", len(instances), len(Corpus(7)))
	}
	for _, in := range instances {
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name, err)
		}
	}
	again, err := GenerateCorpus(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range instances {
		if wmn.HashInstance(instances[i]) != wmn.HashInstance(again[i]) {
			t.Errorf("%s: corpus generation not repeatable", instances[i].Name)
		}
	}
}
