package simulate

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Operator identifies one of the four basic data operators.
type Operator int

// The four basic operators of Table 2.
const (
	OpScan Operator = iota
	OpSort
	OpGroupBy
	OpJoin
	numOperators
)

// Operators lists all four.
func Operators() []Operator {
	return []Operator{OpScan, OpSort, OpGroupBy, OpJoin}
}

// String implements fmt.Stringer.
func (o Operator) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpSort:
		return "Sort"
	case OpGroupBy:
		return "Group by"
	case OpJoin:
		return "Join"
	default:
		return fmt.Sprintf("Operator(%d)", int(o))
	}
}

// Result is the outcome of one (system, operator) experiment.
type Result struct {
	System   System
	Operator Operator

	PartitionNs float64
	ProbeNs     float64
	TotalNs     float64

	Energy energy.Breakdown
	DRAM   dram.Stats

	// Verified confirms the operator output matched the reference.
	Verified bool

	// DistBWPerVaultGBs is the distribution step's per-vault DRAM
	// bandwidth (the §7.1 partition-phase utilization metric);
	// ProbeBWPerVaultGBs the probe phase's.
	DistBWPerVaultGBs  float64
	ProbeBWPerVaultGBs float64

	// Steps preserves the engine's step timeline.
	Steps []engine.StepTiming

	// Phases and Spans are populated only when Params.Obs is set: the
	// operator's phase timeline and the simulated-time span tree
	// (run → phase → step → per-unit task / exchange). Both are built
	// from deterministic engine state, so they are byte-identical at
	// every Parallelism.
	Phases []engine.PhaseTiming `json:",omitempty"`
	Spans  *obs.Span            `json:",omitempty"`
}

// Efficiency returns performance per watt for the fixed operator work:
// perf/watt = (1/t)/(E/t) = 1/E, so efficiency ratios (the paper's Fig. 9)
// are inverse energy ratios. This is why the paper's efficiency gains
// (28×) are smaller than its performance gains (49×): Mondrian draws more
// power while running, "reflecting Mondrian's high utilization of system
// resources" (§7.2).
func (r *Result) Efficiency() float64 {
	if r.Energy.Total() == 0 {
		return 0
	}
	return 1 / r.Energy.Total()
}

// place spreads a relation evenly across the vaults.
func place(e *engine.Engine, rel *tuple.Relation) ([]*engine.Region, error) {
	parts := rel.SplitEven(e.NumVaults())
	regions := make([]*engine.Region, len(parts))
	for v, p := range parts {
		r, err := e.Place(v, p.Tuples)
		if err != nil {
			return nil, err
		}
		regions[v] = r
	}
	return regions, nil
}

// Run executes one operator on one system and verifies its output.
//
// Run is the engine's validated front door (DESIGN.md §10): it vets every
// caller input first (Params.Validate plus system/operator range checks,
// rejecting with a typed *ParamError) and executes the experiment under a
// recovery boundary, so a panic in the simulation internals — an engine
// invariant violation, by the error contract — returns as a *InternalError
// carrying the original panic value and stack instead of crashing the
// caller's process.
func Run(s System, op Operator, p Params) (*Result, error) {
	if err := validateSystemOperator(s, op); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var res *Result
	err := Protect(fmt.Sprintf("%v/%v", s, op), func() error {
		var err error
		res, err = run(s, op, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run is the unguarded experiment body; Run wraps it in validation and the
// recovery boundary. It draws its engine from the shared pool (pool.go)
// unless Params.NoPool opts out, and releases it on every non-panicking
// return — a panic abandons the engine to the garbage collector instead
// of recycling unknowable state.
func run(s System, op Operator, p Params) (*Result, error) {
	e, release, err := acquireEngine(p, s)
	if err != nil {
		return nil, err
	}
	res, err := runOn(e, s, op, p)
	release()
	return res, err
}

// runOn executes one operator experiment on the given pristine engine,
// drawing its input from the dataset cache (dataset.go).
// The returned Result aliases no engine state that outlives the run's
// release: Reset replaces (rather than truncates) the step, phase and
// exchange slices, so the result's views stay intact after the engine is
// recycled.
func runOn(e *engine.Engine, s System, op Operator, p Params) (*Result, error) {
	opCfg := p.OperatorConfig(s)
	res := &Result{System: s, Operator: op}

	switch op {
	case OpScan:
		d, err := streamInput("scan-in", p)
		if err != nil {
			return nil, err
		}
		rel := d.rel
		inputs, err := place(e, rel)
		if err != nil {
			return nil, err
		}
		r, err := operators.Scan(e, opCfg, inputs, d.needle)
		if err != nil {
			return nil, err
		}
		res.ProbeNs = r.ProbeNs
		res.Verified = r.Matches == d.count &&
			tuple.SameMultiset(operators.Gather(r.Out), operators.RefScan(rel.Tuples, d.needle))
		res.ProbeBWPerVaultGBs = phaseBW(r.Steps, e.NumVaults())

	case OpSort:
		d, err := streamInput("sort-in", p)
		if err != nil {
			return nil, err
		}
		inputs, err := place(e, d.rel)
		if err != nil {
			return nil, err
		}
		r, err := operators.Sort(e, opCfg, inputs)
		if err != nil {
			return nil, err
		}
		res.PartitionNs, res.ProbeNs = r.PartitionNs, r.ProbeNs
		res.Verified = verifySorted(r, d.rel)
		res.DistBWPerVaultGBs = distBW(r.Partition, e.NumVaults())

	case OpGroupBy:
		d, err := groupInput("groupby-in", p)
		if err != nil {
			return nil, err
		}
		inputs, err := place(e, d.rel)
		if err != nil {
			return nil, err
		}
		r, err := operators.GroupBy(e, opCfg, inputs)
		if err != nil {
			return nil, err
		}
		res.PartitionNs, res.ProbeNs = r.PartitionNs, r.ProbeNs
		res.Verified = tuple.SameMultiset(operators.Gather(r.Out), operators.RefGroupByTuples(d.rel.Tuples))
		res.DistBWPerVaultGBs = distBW(r.Partition, e.NumVaults())

	case OpJoin:
		d, err := joinInput(p)
		if err != nil {
			return nil, err
		}
		rRel, sRel := d.rel, d.s
		rIn, err := place(e, rRel)
		if err != nil {
			return nil, err
		}
		sIn, err := place(e, sRel)
		if err != nil {
			return nil, err
		}
		r, err := operators.Join(e, opCfg, rIn, sIn)
		if err != nil {
			return nil, err
		}
		res.PartitionNs, res.ProbeNs = r.PartitionNs, r.ProbeNs
		res.Verified = tuple.SameMultiset(operators.Gather(r.Out), operators.RefJoin(rRel.Tuples, sRel.Tuples))
		res.DistBWPerVaultGBs = distBW(r.SPartition, e.NumVaults())

	default:
		return nil, fmt.Errorf("simulate: unknown operator %v", op)
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
	if res.ProbeNs > 0 && res.ProbeBWPerVaultGBs == 0 {
		res.ProbeBWPerVaultGBs = probePhaseBW(res.Steps, res.PartitionNs, e.NumVaults())
	}
	return res, nil
}

// verifySorted checks bucket-local sortedness, global range order, and
// multiset equality with the input.
func verifySorted(r *operators.SortResult, rel *tuple.Relation) bool {
	var got []tuple.Tuple
	var last tuple.Key
	for _, b := range r.Sorted {
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
	return tuple.SameMultiset(got, rel.Tuples)
}

// distBW extracts the distribution step's per-vault bandwidth.
func distBW(pr *operators.PartitionResult, vaults int) float64 {
	for _, st := range pr.Steps {
		if len(st.Name) >= 10 && st.Name[:10] == "distribute" {
			return st.BandwidthPerVaultGBs(st.StepBytes(), vaults)
		}
	}
	return 0
}

// phaseBW aggregates bandwidth over a step list.
func phaseBW(steps []engine.StepTiming, vaults int) float64 {
	var ns float64
	var bytes uint64
	for _, st := range steps {
		ns += st.Ns
		bytes += st.StepBytes()
	}
	if ns == 0 {
		return 0
	}
	return float64(bytes) / ns / float64(vaults)
}

// probePhaseBW aggregates bandwidth over the probe-phase steps (every
// step after the partition phase's accumulated time).
func probePhaseBW(steps []engine.StepTiming, partitionNs float64, vaults int) float64 {
	var elapsed, ns float64
	var bytes uint64
	for _, st := range steps {
		if elapsed >= partitionNs-1e-6 {
			ns += st.Ns
			bytes += st.StepBytes()
		}
		elapsed += st.Ns
	}
	if ns == 0 {
		return 0
	}
	return float64(bytes) / ns / float64(vaults)
}

// RunAll executes the full system × operator matrix.
func RunAll(p Params) (map[System]map[Operator]*Result, error) {
	out := make(map[System]map[Operator]*Result)
	for _, s := range Systems() {
		out[s] = make(map[Operator]*Result)
		for _, op := range Operators() {
			r, err := Run(s, op, p)
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", s, op, err)
			}
			if !r.Verified {
				return nil, fmt.Errorf("%v/%v: output verification failed", s, op)
			}
			out[s][op] = r
		}
	}
	return out, nil
}
