package meshplace

import (
	"context"

	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// Placement-as-a-service types (see the server documentation for full
// semantics). The solver registry unifies every method of the library —
// the seven ad hoc placements, the neighborhood search with its
// hill-climbing / annealing / tabu extensions, and the GA — behind one
// interface addressable by string spec.
type (
	// SolverSpec addresses one solver configuration by kind and
	// parameters; specs round-trip through strings like DistSpec does.
	SolverSpec = server.Spec
	// Solver is the unified solving interface; obtain one with NewSolver.
	Solver = server.Solver
	// SolverInfo documents one registry entry (kind, parameters,
	// defaults).
	SolverInfo = server.SolverInfo
	// ServerConfig parameterizes NewServer (workers, cache size, sync
	// threshold, instance limits).
	ServerConfig = server.Config
	// Server is the HTTP placement service; it implements http.Handler.
	Server = server.Server
	// SolveJob is the JSON view of an async solve job.
	SolveJob = server.JobView
	// SolveResultPayload is the JSON payload of a completed solve.
	SolveResultPayload = server.SolveResult
	// SolveEnvelope is the 200 body of a synchronous POST /v1/solve: the
	// result payload plus the request's telemetry.
	SolveEnvelope = server.SolveResponse
	// SolveMetrics is the flat per-request telemetry attached to every
	// solve response (queue wait, batch build, solve, cache path).
	SolveMetrics = server.RequestMetrics
	// SolveReport is the full outcome of one solve: solution, metrics,
	// evaluation count, anytime curve, optional portfolio race report and
	// the deadline-truncation flag.
	SolveReport = server.SolveReport
	// AnytimePoint is one point of a solve's anytime curve (best fitness by
	// cumulative evaluation count).
	AnytimePoint = server.AnytimePoint
	// PortfolioReport describes how a portfolio solve raced its members.
	PortfolioReport = server.PortfolioReport
	// PortfolioMemberReport is one raced member inside a PortfolioReport.
	PortfolioMemberReport = server.PortfolioMemberReport
	// ServerMetrics is the aggregated telemetry served by GET /v1/metrics:
	// monotonic request/batch counters plus p50/p99 per phase.
	ServerMetrics = server.MetricsSnapshot
	// ServerPhaseStats aggregates one request phase inside ServerMetrics.
	ServerPhaseStats = server.PhaseStats
)

// Solver-plugin surface. Every solver kind — the built-ins and any
// out-of-tree backend — enters the registry through RegisterSolverBackend,
// typically from an init function; after registration the kind is
// addressable everywhere specs are (ParseSolverSpec, POST /v1/solve, suite
// sweeps, portfolio members and the CLI), and its parameter schema is
// served through GET /v1/solvers and `wmnplace solvers`. A backend must
// honor the module's core invariant: identical (instance, spec, seed)
// triples yield byte-identical results, with every random stream derived
// from the seed and ctx deciding only which deterministic phase boundary a
// truncated run stops at.
type (
	// BackendFactory describes one solver kind to the registry:
	// documentation, parameter schema, and the builder turning a parsed
	// spec into a runnable solve.
	BackendFactory = server.BackendFactory
	// BackendParam declares one parameter of a backend kind: key, default,
	// doc and an optional checker (nil accepts any value verbatim).
	BackendParam = server.BackendParam
	// BackendHooks carries the per-solve observation (OnPhase) and control
	// (Stop) hooks into a backend run; either may be nil.
	BackendHooks = server.BackendHooks
	// BackendResult is what a backend run returns: the raw engine outcome
	// the generic solver wrapper turns into a SolveReport.
	BackendResult = server.BackendResult
	// BackendSolve runs one solve for a built backend.
	BackendSolve = server.BackendSolve
	// SolverParamInfo documents one parameter of a solver kind inside
	// SolverInfo.
	SolverParamInfo = server.ParamInfo
)

// RegisterSolverBackend adds a solver kind to the registry. It is intended
// to be called from an init function and panics on invalid registrations
// (duplicate kind, malformed kind or parameter name, a default failing its
// own checker) — those are programming errors in the registering package,
// not runtime input.
func RegisterSolverBackend(kind string, f BackendFactory) { server.RegisterBackend(kind, f) }

// ParseSolverSpec parses the solver-spec syntax, e.g. "adhoc:method=Near",
// "search:movement=swap,phases=61,neighbors=16,init=Random" or
// "ga:init=HotSpot,generations=800,pop=64". Omitted parameters take the
// registered defaults; ParseSolverSpec(spec.String()) reproduces spec.
func ParseSolverSpec(text string) (SolverSpec, error) { return server.ParseSpec(text) }

// SolverKinds lists the registered solver kinds in registration order.
func SolverKinds() []string { return server.Kinds() }

// SolverCatalog documents every registered solver kind with its
// parameters and defaults — the data behind GET /v1/solvers.
func SolverCatalog() []SolverInfo { return server.Catalog() }

// NewSolver builds the solver a spec addresses.
func NewSolver(spec SolverSpec) (Solver, error) { return server.NewSolver(spec) }

// Solve runs one solver spec on an instance under the paper's default
// evaluation model, deriving all randomness from seed. Identical
// (instance, spec, seed) triples yield identical solutions on every
// platform. The solve always runs to completion; use SolveContext to bound
// it with a deadline.
func Solve(spec SolverSpec, in *Instance, seed uint64) (Solution, Metrics, error) {
	rep, err := SolveContext(context.Background(), spec, in, seed)
	return rep.Solution, rep.Metrics, err
}

// SolveContext is Solve bounded by a context: when ctx is cancelled or its
// deadline expires, the solver stops at its next phase boundary and
// returns the incumbent best as a normal result (Truncated set), never an
// error. The full report carries the anytime curve and, for portfolio
// specs, the member race report. Deadlines never perturb determinism —
// they only pick which deterministic phase boundary the run stops at.
func SolveContext(ctx context.Context, spec SolverSpec, in *Instance, seed uint64) (SolveReport, error) {
	sv, err := server.NewSolver(spec)
	if err != nil {
		return SolveReport{}, err
	}
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		return SolveReport{}, err
	}
	return sv.(server.TracedSolver).SolveTraced(ctx, eval, seed, nil)
}

// DefaultServerConfig returns the serving defaults used by
// `wmnplace serve`.
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// NewServer constructs the HTTP placement service: POST /v1/solve (sync or
// async by instance size, with identical concurrent requests batched and
// deduplicated into one computation), GET /v1/jobs/{id}, GET /v1/solvers,
// GET /v1/metrics and GET /healthz. Call Close to release its worker pool.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }
