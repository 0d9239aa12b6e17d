// Package placement turns the advisor from a per-app probe into the
// backend of a scheduler: given M named workloads and a machine shape
// (architecture, chips, cores, SMT width), it co-simulates every
// co-locatable workload pair on one SMT core, scores each co-run with the
// paper's SMT-selection metric (higher = more contention = worse to
// co-locate), and assigns every thread to a core with a deterministic
// greedy-with-refinement solver that minimizes the summed pair scores
// under anti-affinity and max-threads-per-core constraints.
//
// The pair-compatibility idea is SYNPA's (arXiv:2310.12786) lifted onto
// this repo's simulator: no new hardware counters are needed — the score
// of a pair is simply smtsm.Compute over the counter snapshot of the two
// threads sharing one core, which is exactly the contention signal the
// paper validated per application.
//
// Determinism contract: Place is a pure function of the resolved Input.
// Pair co-runs are seeded from Input.Seed and the workload names and run
// one at a time in candidate order, each on a freshly scrubbed machine,
// and the solver visits threads in a seeded order derived only from
// canonical data — so the same request yields a byte-identical response
// at any GOMAXPROCS, on any shard, fresh or replayed.
package placement

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/api"
	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Bounds of the scoring pass.
const (
	// DefaultScoreCycles caps each pair co-run. Pair scoring needs a
	// representative contention interval, not a completed run, so the cap
	// is deliberately far below a probe's budget.
	DefaultScoreCycles = 200_000
	// MaxWorkloads bounds a request's mix; pair scoring is quadratic.
	MaxWorkloads = 32
)

// ErrInfeasible reports that no assignment satisfies the anti-affinity
// and capacity constraints together. It is a request problem (HTTP 400),
// not a server failure.
var ErrInfeasible = errors.New("placement: no feasible assignment under the given constraints")

// Workload is one resolved workload of the mix: a validated spec plus the
// number of threads it contributes.
type Workload struct {
	Name    string
	Spec    *workload.Spec
	Threads int
}

// Input is a fully resolved, validated and canonicalized placement
// problem. Build one with Resolve; the fields are ordered so that two
// semantically identical requests — whatever the field or workload order
// of the incoming JSON — resolve to identical Inputs.
type Input struct {
	Desc       *arch.Desc
	Chips      int
	MaxPerCore int
	Seed       uint64
	// Workloads is sorted by name; names are unique.
	Workloads []Workload
	// Anti holds forbidden co-location pairs as workload indices with
	// i <= j, sorted and deduplicated. A pair (i, i) forbids the
	// workload's own threads from sharing a core.
	Anti [][2]int
}

// Resolve validates an api.PlaceRequest against an architecture and
// builds the canonical Input. Every error it returns is a client error
// (the server maps them to 400).
func Resolve(d *arch.Desc, defaultChips int, req api.PlaceRequest) (*Input, error) {
	chips := req.Chips
	if chips == 0 {
		chips = defaultChips
	}
	if chips < 1 {
		return nil, fmt.Errorf("chips %d: need >= 1", req.Chips)
	}
	if chips > api.MaxChips {
		return nil, fmt.Errorf("chips %d: exceeds the limit of %d", chips, api.MaxChips)
	}
	if d.MaxSMT < 2 {
		return nil, fmt.Errorf("architecture %s exposes no SMT (max level %d): nothing to place", d.Name, d.MaxSMT)
	}
	maxPerCore := req.MaxPerCore
	if maxPerCore == 0 {
		maxPerCore = d.MaxSMT
	}
	if maxPerCore < 1 || maxPerCore > d.MaxSMT {
		return nil, fmt.Errorf("maxPerCore %d: need 1..%d on %s", req.MaxPerCore, d.MaxSMT, d.Name)
	}
	if len(req.Workloads) == 0 {
		return nil, errors.New("workloads: need at least one")
	}
	if len(req.Workloads) > MaxWorkloads {
		return nil, fmt.Errorf("workloads: %d exceeds the limit of %d", len(req.Workloads), MaxWorkloads)
	}

	in := &Input{Desc: d, Chips: chips, MaxPerCore: maxPerCore, Seed: req.Seed}
	cores := chips * d.CoresPerChip
	capacity := func(threads int) error {
		return fmt.Errorf("capacity: %d threads exceed %d cores × %d threads/core on %d×%s",
			threads, cores, maxPerCore, chips, d.Name)
	}
	seen := make(map[string]bool, len(req.Workloads))
	total := 0
	for i, pw := range req.Workloads {
		if pw.Name == "" {
			return nil, fmt.Errorf("workload %d: name is required", i)
		}
		if seen[pw.Name] {
			return nil, fmt.Errorf("workload %q: duplicate name", pw.Name)
		}
		seen[pw.Name] = true
		threads := pw.Threads
		if threads == 0 {
			threads = 1
		}
		if threads < 1 {
			return nil, fmt.Errorf("workload %q: threads %d, need >= 1", pw.Name, pw.Threads)
		}
		var spec *workload.Spec
		switch {
		case pw.Bench != "" && pw.Spec != nil:
			return nil, fmt.Errorf("workload %q: set either bench or spec, not both", pw.Name)
		case pw.Bench != "":
			s, err := workload.Get(pw.Bench)
			if err != nil {
				return nil, fmt.Errorf("workload %q: unknown bench %q (known: %s)",
					pw.Name, pw.Bench, strings.Join(workload.Names(), ", "))
			}
			spec = s
		case pw.Spec != nil:
			// Specs arriving over the wire are already validated by
			// UnmarshalJSON; specs built in Go (smtctl, tests) are not.
			if err := pw.Spec.Validate(); err != nil {
				return nil, fmt.Errorf("workload %q: %v", pw.Name, err)
			}
			spec = pw.Spec
		default:
			return nil, fmt.Errorf("workload %q: one of bench or spec is required", pw.Name)
		}
		// Checking each workload before summing keeps the total at most
		// MaxWorkloads × capacity, far from overflowing int.
		if threads > cores*maxPerCore {
			return nil, capacity(threads)
		}
		total += threads
		in.Workloads = append(in.Workloads, Workload{Name: pw.Name, Spec: spec, Threads: threads})
	}
	sort.Slice(in.Workloads, func(a, b int) bool { return in.Workloads[a].Name < in.Workloads[b].Name })

	if total > cores*maxPerCore {
		return nil, capacity(total)
	}

	index := make(map[string]int, len(in.Workloads))
	for i, w := range in.Workloads {
		index[w.Name] = i
	}
	antiSeen := make(map[[2]int]bool)
	for _, rule := range req.AntiAffinity {
		a, okA := index[rule.A]
		b, okB := index[rule.B]
		if !okA {
			return nil, fmt.Errorf("antiAffinity: unknown workload %q", rule.A)
		}
		if !okB {
			return nil, fmt.Errorf("antiAffinity: unknown workload %q", rule.B)
		}
		if a > b {
			a, b = b, a
		}
		p := [2]int{a, b}
		if !antiSeen[p] {
			antiSeen[p] = true
			in.Anti = append(in.Anti, p)
		}
	}
	sort.Slice(in.Anti, func(x, y int) bool {
		if in.Anti[x][0] != in.Anti[y][0] {
			return in.Anti[x][0] < in.Anti[y][0]
		}
		return in.Anti[x][1] < in.Anti[y][1]
	})
	return in, nil
}

// canonicalInput is the serialization schema of Canonical: every field
// that shapes the answer, in a fixed order, with specs in their canonical
// JSON form.
type canonicalInput struct {
	Arch       string              `json:"arch"`
	Chips      int                 `json:"chips"`
	MaxPerCore int                 `json:"maxPerCore"`
	Seed       uint64              `json:"seed"`
	Workloads  []canonicalWorkload `json:"workloads"`
	Anti       [][2]int            `json:"anti,omitempty"`
}

type canonicalWorkload struct {
	Name    string         `json:"name"`
	Threads int            `json:"threads"`
	Spec    *workload.Spec `json:"spec"`
}

// Canonical renders the resolved input as deterministic canonical JSON:
// the identity the server keys its cache and flight coalescing by and the
// router hashes for shard selection. Two requests that differ only in
// JSON field order, workload order, anti-affinity order/duplication or
// defaulted fields canonicalize to the same bytes.
func (in *Input) Canonical() ([]byte, error) {
	c := canonicalInput{
		Arch:       in.Desc.Name,
		Chips:      in.Chips,
		MaxPerCore: in.MaxPerCore,
		Seed:       in.Seed,
		Anti:       in.Anti,
	}
	for _, w := range in.Workloads {
		c.Workloads = append(c.Workloads, canonicalWorkload{Name: w.Name, Threads: w.Threads, Spec: w.Spec})
	}
	return json.Marshal(c)
}

// Fingerprint is the canonical identity of the resolved input, formatted
// the way Recommendation fingerprints are.
func (in *Input) Fingerprint() (string, error) {
	b, err := in.Canonical()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", xrand.HashBytes(b)), nil
}

// Engine scores workload pairs by co-simulation and solves the
// assignment. The zero value works; wiring Pool shares pooled machines
// with the rest of the server.
type Engine struct {
	Pool *cpu.Pool
}

// pair identifies one co-locatable workload pair by index, i <= j.
type pair struct{ i, j int }

// Place scores every co-locatable pair and solves the assignment.
//
// On context expiry mid-scoring it still solves with the scores gathered
// so far and returns the partial response ALONGSIDE the context error —
// the server's degradation ladder decides whether a partial placement is
// served (marked degraded, Warning 199) or discarded. An infeasible
// constraint system surfaces as ErrInfeasible (a client error); any other
// simulation failure returns a zero response and the error.
func (e *Engine) Place(ctx context.Context, in *Input) (api.PlaceResponse, error) {
	pairs := e.candidatePairs(in)
	scores, matrix, scoreErr := e.scorePairs(ctx, in, pairs)
	resp, err := e.assemble(in, scores, matrix)
	if err != nil {
		return api.PlaceResponse{}, err
	}
	return resp, scoreErr
}

// candidatePairs enumerates the pairs worth scoring: every unordered pair
// that could legally share a core. Anti-forbidden pairs and self-pairs of
// single-threaded workloads are skipped — they can never co-locate, so
// their score would be dead weight in every response.
func (e *Engine) candidatePairs(in *Input) []pair {
	anti := make(map[pair]bool, len(in.Anti))
	for _, p := range in.Anti {
		anti[pair{p[0], p[1]}] = true
	}
	var out []pair
	for i := range in.Workloads {
		for j := i; j < len(in.Workloads); j++ {
			if i == j && in.Workloads[i].Threads < 2 {
				continue
			}
			if anti[pair{i, j}] {
				continue
			}
			out = append(out, pair{i, j})
		}
	}
	return out
}

// pairSeed derives the co-run seed of one pair side from the request seed
// and the workload names, so a pair's score is independent of where the
// pair falls in the candidate order.
func pairSeed(seed uint64, a, b string, side uint64) uint64 {
	return xrand.Mix64(seed ^ xrand.Mix64(xrand.HashString(a)^xrand.Mix64(xrand.HashString(b)+side)))
}

// pairParts names the two threads of one pair co-run. Each pair gets its
// own instantiation, so no sched runtime state (locks, barriers) carries
// from one co-run into the next.
func pairParts(in *Input, p pair) []controller.Part {
	a, b := in.Workloads[p.i], in.Workloads[p.j]
	if p.i == p.j {
		return []controller.Part{{Spec: a.Spec, Threads: 2, Seed: pairSeed(in.Seed, a.Name, a.Name, 0)}}
	}
	return []controller.Part{
		{Spec: a.Spec, Threads: 1, Seed: pairSeed(in.Seed, a.Name, b.Name, 0)},
		{Spec: b.Spec, Threads: 1, Seed: pairSeed(in.Seed, a.Name, b.Name, 1)},
	}
}

// scorePairs co-simulates the candidate pairs one at a time, each on its
// own one-chip machine with both threads on core 0 (RunContext places
// threads core-major), i.e. the two programs genuinely share one SMT
// core's pipeline and caches. The score is the SMT-selection metric of the
// pair's counter snapshot.
//
// Returns the scores of every pair that finished before any interruption
// plus the score matrix; a context expiry surfaces as a non-nil error with
// those partial results, any other run failure as a hard error.
func (e *Engine) scorePairs(ctx context.Context, in *Input, pairs []pair) ([]api.PairScore, map[pair]float64, error) {
	matrix := make(map[pair]float64, len(pairs))
	var list []api.PairScore
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			return list, matrix, err
		}
		a, b := in.Workloads[p.i].Name, in.Workloads[p.j].Name
		m, err := e.Pool.Get(in.Desc, 1)
		if err != nil {
			return list, matrix, err
		}
		res, err := controller.Measure(ctx, m, pairParts(in, p), DefaultScoreCycles)
		e.Pool.Put(m)
		if err != nil && !errors.Is(err, cpu.ErrCycleLimit) {
			return list, matrix, fmt.Errorf("pair %s×%s: %w", a, b, err)
		}
		matrix[p] = res.Metric.Value
		list = append(list, api.PairScore{A: a, B: b, Score: res.Metric.Value, WallCycles: res.WallCycles})
	}
	return list, matrix, nil
}

// assemble runs the solver and renders the response. Pairs the scoring
// pass did not reach (partial path) contribute zero to the objective —
// the solver still produces a legal assignment.
func (e *Engine) assemble(in *Input, scores []api.PairScore, matrix map[pair]float64) (api.PlaceResponse, error) {
	score := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return matrix[pair{i, j}]
	}
	cores, total, err := solve(in, score)
	if err != nil {
		return api.PlaceResponse{}, err
	}
	fp, err := in.Fingerprint()
	if err != nil {
		return api.PlaceResponse{}, err
	}
	resp := api.PlaceResponse{
		Arch:        in.Desc.Name,
		Chips:       in.Chips,
		SMTLevel:    in.Desc.MaxSMT,
		MaxPerCore:  in.MaxPerCore,
		TotalScore:  total,
		PairScores:  scores,
		Fingerprint: fp,
	}
	for c, units := range cores {
		if len(units) == 0 {
			continue
		}
		a := api.Assignment{Chip: c / in.Desc.CoresPerChip, Core: c % in.Desc.CoresPerChip}
		for _, u := range units {
			a.Threads = append(a.Threads, in.Workloads[u].Name)
		}
		resp.Assignments = append(resp.Assignments, a)
	}
	return resp, nil
}
