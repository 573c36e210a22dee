package simulate

import (
	"fmt"
	"strings"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/plan"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Plan identifies one of the registered multi-operator query shapes — the
// way the paper's Table 1 workloads actually use the basic operators. Each
// shape is compiled by the query-plan compiler (internal/plan) and run as
// one experiment, so fused whole-query execution is measurable across the
// same system matrix as the single operators.
type Plan int

// The registered query shapes.
const (
	// PlanFilterSort: Sort(Filter(S)) — select then order.
	PlanFilterSort Plan = iota
	// PlanSortAgg: GroupBy(Sort(S)) — the aggregation consumes the sort's
	// range partition without re-shuffling.
	PlanSortAgg
	// PlanJoinAgg: GroupBy(Join(R, S)) — the aggregation consumes the
	// join's hash partition without re-shuffling.
	PlanJoinAgg
	// PlanJoinAggSort: Sort(GroupBy(Join(R, S))) — the full
	// select-join-aggregate-order chain.
	PlanJoinAggSort
	// PlanStarJoinAgg: GroupBy(S ⋈ R1 ⋈ R2) — a star shape whose greedy
	// join order keeps the running intermediate hash-partitioned, so every
	// join after the first elides its probe-side re-shuffle.
	PlanStarJoinAgg
	numPlans
)

// Plans lists every registered query shape — the RunAllPlans matrix.
func Plans() []Plan {
	out := make([]Plan, numPlans)
	for i := range out {
		out[i] = Plan(i)
	}
	return out
}

// String implements fmt.Stringer with the CLI spelling.
func (pl Plan) String() string {
	switch pl {
	case PlanFilterSort:
		return "filter-sort"
	case PlanSortAgg:
		return "sort-agg"
	case PlanJoinAgg:
		return "join-agg"
	case PlanJoinAggSort:
		return "join-agg-sort"
	case PlanStarJoinAgg:
		return "star-join-agg"
	default:
		return fmt.Sprintf("Plan(%d)", int(pl))
	}
}

// ParsePlan resolves a plan name (case-insensitive).
func ParsePlan(name string) (Plan, error) {
	for _, pl := range Plans() {
		if strings.EqualFold(name, pl.String()) {
			return pl, nil
		}
	}
	return 0, fmt.Errorf("simulate: unknown plan %q (want one of %s)",
		name, strings.Join(PlanNames(), ", "))
}

// PlanNames returns the CLI spellings of the registered plans.
func PlanNames() []string {
	out := make([]string, 0, numPlans)
	for _, pl := range Plans() {
		out = append(out, pl.String())
	}
	return out
}

// PlanResult is the outcome of one (system, plan) experiment.
type PlanResult struct {
	System System
	Plan   Plan

	TotalNs float64

	Energy energy.Breakdown
	DRAM   dram.Stats

	// Verified confirms the plan output matched the composed operator
	// references (full multiset, plus global order when the plan's final
	// stage is a Sort).
	Verified bool

	// Elisions counts the re-shuffles the compiler skipped; Stages is the
	// per-stage breakdown in execution order.
	Elisions int
	Stages   []plan.StageStats

	// Steps preserves the engine's step timeline.
	Steps []engine.StepTiming

	// Phases and Spans are populated only when Params.Obs is set (see
	// Result).
	Phases []engine.PhaseTiming `json:",omitempty"`
	Spans  *obs.Span            `json:",omitempty"`
}

// validateSystemPlan range-checks the plan experiment selectors.
func validateSystemPlan(s System, pl Plan) error {
	if n := registeredSystems(); s < 0 || int(s) >= n {
		return &ParamError{"System", int(s), fmt.Sprintf("want a registered system 0..%d", n-1)}
	}
	if pl < 0 || pl >= numPlans {
		return &ParamError{"Plan", int(pl), fmt.Sprintf("want 0..%d", int(numPlans)-1)}
	}
	return nil
}

// RunPlan compiles and executes one query plan on one system and verifies
// its output against the composed operator references. Like Run, it vets
// every caller input first and executes under the recovery boundary.
func RunPlan(s System, pl Plan, p Params) (*PlanResult, error) {
	if err := validateSystemPlan(s, pl); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var res *PlanResult
	err := Protect(fmt.Sprintf("%v/%v", s, pl), func() error {
		var err error
		res, err = runPlan(s, pl, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runPlan is the unguarded experiment body; RunPlan wraps it in validation
// and the recovery boundary. Engine lifecycle matches run (run.go): pooled
// acquire, release on non-panicking returns.
func runPlan(s System, pl Plan, p Params) (*PlanResult, error) {
	e, release, err := acquireEngine(p, s)
	if err != nil {
		return nil, err
	}
	res, err := runPlanOn(e, s, pl, p)
	release()
	return res, err
}

// runPlanOn executes one compiled-plan experiment on the given pristine
// engine, drawing its inputs from the dataset cache (dataset.go).
func runPlanOn(e *engine.Engine, s System, pl Plan, p Params) (*PlanResult, error) {
	opCfg := p.OperatorConfig(s)
	res := &PlanResult{System: s, Plan: pl}

	// Build the logical tree and the composed reference for each shape.
	var root plan.Node
	var want []tuple.Tuple // expected output multiset
	ordered := false       // final stage is a Sort → check global order too

	table := func(label string, rel *tuple.Relation) (*plan.Table, error) {
		regions, err := place(e, rel)
		if err != nil {
			return nil, err
		}
		return &plan.Table{Label: label, Regions: regions}, nil
	}

	switch pl {
	case PlanFilterSort:
		d, err := streamInput("filter-in", p)
		if err != nil {
			return nil, err
		}
		t, err := table("s", d.rel)
		if err != nil {
			return nil, err
		}
		root = &plan.Sort{In: &plan.Filter{In: t, Needle: d.needle}}
		want = operators.RefScan(d.rel.Tuples, d.needle)
		ordered = true

	case PlanSortAgg:
		d, err := groupInput("agg-in", p)
		if err != nil {
			return nil, err
		}
		t, err := table("s", d.rel)
		if err != nil {
			return nil, err
		}
		// The uniform generator draws keys from [0, STuples/GroupSize) —
		// far below the configured key space — so the sort stage must
		// range-split over the actual bound or every tuple funnels into
		// range bucket 0. The Zipf generator uses the full key space.
		var ks uint64
		if p.ZipfS == 0 {
			groups := p.STuples / p.GroupSize
			if groups < 1 {
				groups = 1
			}
			ks = uint64(groups)
		}
		root = &plan.GroupBy{In: &plan.Sort{In: t, KeySpace: ks}}
		want = operators.RefGroupByTuples(d.rel.Tuples)

	case PlanJoinAgg:
		d, err := joinInput(p)
		if err != nil {
			return nil, err
		}
		rRel, sRel := d.rel, d.s
		rT, err := table("r", rRel)
		if err != nil {
			return nil, err
		}
		sT, err := table("s", sRel)
		if err != nil {
			return nil, err
		}
		root = &plan.GroupBy{In: &plan.Join{R: rT, S: sT}}
		want = operators.RefGroupByTuples(operators.RefJoin(rRel.Tuples, sRel.Tuples))

	case PlanJoinAggSort:
		d, err := joinInput(p)
		if err != nil {
			return nil, err
		}
		rRel, sRel := d.rel, d.s
		rT, err := table("r", rRel)
		if err != nil {
			return nil, err
		}
		sT, err := table("s", sRel)
		if err != nil {
			return nil, err
		}
		// Join keys live in [0, RTuples); the sort stage must range-split
		// over that bound, not the full configured key space, or every
		// aggregate funnels into range bucket 0.
		root = &plan.Sort{
			KeySpace: uint64(p.RTuples),
			In:       &plan.GroupBy{In: &plan.Join{R: rT, S: sT}},
		}
		want = operators.RefGroupByTuples(operators.RefJoin(rRel.Tuples, sRel.Tuples))
		ordered = true

	case PlanStarJoinAgg:
		d, err := joinInput(p)
		if err != nil {
			return nil, err
		}
		rRel, sRel := d.rel, d.s
		dim, err := dimInput(p)
		if err != nil {
			return nil, err
		}
		dRel := dim.rel
		rT, err := table("r1", rRel)
		if err != nil {
			return nil, err
		}
		dT, err := table("r2", dRel)
		if err != nil {
			return nil, err
		}
		sT, err := table("s", sRel)
		if err != nil {
			return nil, err
		}
		root = &plan.GroupBy{In: &plan.MultiJoin{Fact: sT, Dims: []plan.Node{rT, dT}}}
		want = operators.RefGroupByTuples(
			operators.RefJoin(rRel.Tuples, operators.RefJoin(dRel.Tuples, sRel.Tuples)))

	default:
		return nil, fmt.Errorf("simulate: unknown plan %v", pl)
	}

	r, err := plan.RunWith(e, opCfg, root, plan.Options{NoFusion: p.NoFusion})
	if err != nil {
		return nil, err
	}
	res.Elisions = r.Elisions
	res.Stages = r.Stages
	res.Verified = tuple.SameMultiset(r.Tuples(), want)
	if ordered && res.Verified {
		res.Verified = verifyOrdered(r.Ordered, want)
	}

	res.TotalNs = e.TotalNs()
	res.Energy = e.Energy(p.Energy)
	res.DRAM = e.DRAMStats()
	res.Steps = e.Steps()
	if p.Obs != nil {
		e.CollectObs(p.Obs)
		collectEnergy(p.Obs, res.Energy)
		res.Phases = e.Phases()
		res.Spans = e.BuildSpans()
	}
	return res, nil
}

// verifyOrdered checks bucket-local sortedness, global range order, and
// multiset equality with the expected output (verifySorted for a plan's
// sorted buckets).
func verifyOrdered(sorted []*engine.Region, want []tuple.Tuple) bool {
	if sorted == nil {
		return false
	}
	var got []tuple.Tuple
	var last tuple.Key
	for _, b := range sorted {
		for i := 1; i < b.Len(); i++ {
			if b.Tuples[i].Key < b.Tuples[i-1].Key {
				return false
			}
		}
		if len(got) > 0 && b.Len() > 0 && b.Tuples[0].Key < last {
			return false
		}
		if b.Len() > 0 {
			last = b.Tuples[b.Len()-1].Key
		}
		got = append(got, b.Tuples...)
	}
	return tuple.SameMultiset(got, want)
}

// planOperator is the manifest's Operator string for a plan run: the plan
// name under a "plan:" prefix, with a "+staged" suffix when fusion was
// disabled — staged-ness changes simulated cost, so the two variants must
// not collide in a manifest archive.
func planOperator(pl Plan, noFusion bool) string {
	op := "plan:" + pl.String()
	if noFusion {
		op += "+staged"
	}
	return op
}

// BuildPlanManifest assembles the machine-readable run manifest for one
// PlanResult produced with p.Obs set. Identical to BuildManifest except the
// Operator field carries the plan spelling (see planOperator).
func BuildPlanManifest(res *PlanResult, p Params, includeSpans bool) *obs.Manifest {
	m := &obs.Manifest{
		Schema:           obs.ManifestSchema,
		System:           res.System.String(),
		Operator:         planOperator(res.Plan, p.NoFusion),
		Params:           manifestParams(p),
		Verified:         res.Verified,
		SimulatedTotalNs: res.TotalNs,
		Metrics:          p.Obs.Snapshot(),
		Host:             obs.NewHostInfo(p.Parallelism),
	}
	m.Windows = obs.SummarizeHistograms(m.Metrics)
	for _, ph := range res.Phases {
		m.Phases = append(m.Phases, obs.PhaseSummary{
			Name:        ph.Name,
			SimulatedNs: ph.SimulatedNs(),
			WallNs:      ph.WallNs,
		})
	}
	if includeSpans {
		m.Spans = res.Spans
	}
	return m
}

// RunAllPlans executes the full system × plan matrix.
func RunAllPlans(p Params) (map[System]map[Plan]*PlanResult, error) {
	out := make(map[System]map[Plan]*PlanResult)
	for _, s := range Systems() {
		out[s] = make(map[Plan]*PlanResult)
		for _, pl := range Plans() {
			r, err := RunPlan(s, pl, p)
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", s, pl, err)
			}
			if !r.Verified {
				return nil, fmt.Errorf("%v/%v: output verification failed", s, pl)
			}
			out[s][pl] = r
		}
	}
	return out, nil
}
