// Package server exposes every placement method of the library as a
// service: a solver registry that unifies the paper's seven ad hoc methods,
// the neighborhood search with its hill-climbing / annealing / tabu
// extensions and the genetic algorithm behind one Solver interface
// addressable by string spec; an HTTP JSON API (POST /v1/solve,
// GET /v1/jobs/{id}, GET /v1/solvers, GET /v1/scenarios, GET /healthz); an
// async job queue for large instances, whose solves share the server's one
// worker pool; and an LRU result cache that serves repeated seeded requests
// byte-identically without recomputation.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec addresses one solver configuration: a registry kind plus its
// parameters, every parameter filled with a canonical value. Like
// dist.Spec, specs are string-round-trippable — ParseSpec(s.String())
// reproduces s exactly — and String() doubles as the solver part of the
// result-cache key, so equal strings mean equal computations.
type Spec struct {
	kind   string
	params []specParam // in registry order, every key present
}

type specParam struct{ key, value string }

// Kind returns the registry kind ("adhoc", "search", "hillclimb",
// "anneal", "tabu" or "ga"); empty for the zero Spec.
func (s Spec) Kind() string { return s.kind }

// Param returns the canonical value of one parameter, or "" when the spec
// does not carry the key.
func (s Spec) Param(key string) string {
	for _, p := range s.params {
		if p.key == key {
			return p.value
		}
	}
	return ""
}

// String renders the spec in the syntax accepted by ParseSpec:
// "kind:key=value,...", parameters in registry order with canonical
// values, so ParseSpec(s.String()) == s for every valid spec.
func (s Spec) String() string {
	if s.kind == "" {
		return "unspecified"
	}
	var b strings.Builder
	b.WriteString(s.kind)
	for i, p := range s.params {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(p.key)
		b.WriteByte('=')
		b.WriteString(p.value)
	}
	return b.String()
}

// MarshalJSON encodes the spec as its canonical string form.
func (s Spec) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a spec from its string form via ParseSpec.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var text string
	if err := json.Unmarshal(data, &text); err != nil {
		return fmt.Errorf("server: solver spec must be a string: %w", err)
	}
	spec, err := ParseSpec(text)
	if err != nil {
		return err
	}
	*s = spec
	return nil
}

// ParseSpec parses the solver-spec syntax (the inverse of String): a kind
// name, optionally followed by ":" and comma-separated key=value
// parameters. Kinds and keys match case-insensitively; omitted parameters
// take the registry defaults, so the result always carries the full
// canonical parameter set.
func ParseSpec(text string) (Spec, error) {
	head, rest, hasParams := strings.Cut(strings.TrimSpace(text), ":")
	kind := strings.ToLower(strings.TrimSpace(head))
	def, ok := registry[kind]
	if !ok || kind == "" {
		return Spec{}, fmt.Errorf("server: unknown solver %q (want %s)", head, strings.Join(Kinds(), ", "))
	}

	given := map[string]string{}
	if hasParams {
		for _, item := range strings.Split(rest, ",") {
			key, value, ok := strings.Cut(item, "=")
			if !ok {
				return Spec{}, fmt.Errorf("server: malformed parameter %q (want key=value)", item)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			if _, dup := given[key]; dup {
				return Spec{}, fmt.Errorf("server: duplicate parameter %q", key)
			}
			given[key] = strings.TrimSpace(value)
		}
	}

	spec := Spec{kind: kind, params: make([]specParam, 0, len(def.Params))}
	for _, pd := range def.Params {
		raw, ok := given[pd.Key]
		if !ok {
			raw = pd.Default
		}
		// A nil checker accepts the raw value as its own canonical form.
		canon := raw
		if pd.Check != nil {
			var err error
			if canon, err = pd.Check(raw); err != nil {
				return Spec{}, fmt.Errorf("server: %s parameter %q: %w", kind, pd.Key, err)
			}
		}
		spec.params = append(spec.params, specParam{key: pd.Key, value: canon})
		delete(given, pd.Key)
	}
	if len(given) > 0 {
		extra := make([]string, 0, len(given))
		for key := range given {
			extra = append(extra, key)
		}
		sort.Strings(extra)
		return Spec{}, fmt.Errorf("server: %s does not take parameter %q", kind, extra[0])
	}
	return spec, nil
}

// specInt reads an integer parameter of a parsed spec. Parsing canonicalized
// the value, so failure is a registry bug, not an input error.
func (s Spec) specInt(key string) int {
	v, err := strconv.Atoi(s.Param(key))
	if err != nil {
		panic(fmt.Sprintf("server: spec %s parameter %q is not canonical: %v", s, key, err))
	}
	return v
}

// specFloat reads a float parameter of a parsed spec.
func (s Spec) specFloat(key string) float64 {
	v, err := strconv.ParseFloat(s.Param(key), 64)
	if err != nil {
		panic(fmt.Sprintf("server: spec %s parameter %q is not canonical: %v", s, key, err))
	}
	return v
}

// Parameter checkers: each canonicalizes a raw value or rejects it.

// intParam accepts integers ≥ min, canonicalized via strconv.Itoa.
func intParam(min int) func(string) (string, error) {
	return func(raw string) (string, error) {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", fmt.Errorf("%q is not an integer", raw)
		}
		if v < min {
			return "", fmt.Errorf("%d < %d", v, min)
		}
		return strconv.Itoa(v), nil
	}
}

// floatParam accepts strictly positive finite floats, canonicalized with
// the shortest representation that round-trips exactly (as dist does).
// NaN and ±Inf parse but poison every downstream comparison, so they are
// rejected here.
func floatParam(raw string) (string, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return "", fmt.Errorf("%q is not a number", raw)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "", fmt.Errorf("%q is not finite", raw)
	}
	if v <= 0 {
		return "", fmt.Errorf("%g is not positive", v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64), nil
}
