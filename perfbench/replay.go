package main

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/simulate"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// The replay re-executes one request through the public functions of the
// workload, engine, operators and simulate packages in the order
// simulate.Run calls them, timing each call from outside. It reproduces
// Run's simulated TotalNs, DRAM stats and energy exactly (replay_test.go),
// so the host time it attributes is the host time Run spends. Plans run
// through simulate.RunPlan as one span.

// outcome is the part of a result the fidelity check compares.
type outcome struct {
	TotalNs  float64
	DRAM     dram.Stats
	Energy   energy.Breakdown
	Verified bool
}

func resultOutcome(r *simulate.Result) outcome {
	return outcome{r.TotalNs, r.DRAM, r.Energy, r.Verified}
}

func planOutcome(r *simulate.PlanResult) outcome {
	return outcome{r.TotalNs, r.DRAM, r.Energy, r.Verified}
}

// simCounts are the simulated work counts a run publishes through obs,
// keyed by their per-layer metric name.
var simCounters = []struct{ metric, counter string }{
	{"cache.l1_accesses", "l1_accesses"},
	{"cache.l1_misses", "l1_misses"},
	{"cache.llc_accesses", "llc_accesses"},
	{"cache.llc_misses", "llc_misses"},
	{"cache.tlb_l1_misses", "tlb_l1_misses"},
	{"dram.accesses", "dram_reads"},
	{"dram.accesses", "dram_writes"},
	{"dram.activations", "dram_activations"},
	{"dram.row_hits", "dram_row_hits"},
	{"noc.mesh_bytes", "mesh_bytes"},
	{"noc.serdes_bytes", "serdes_bytes"},
	{"hmc.stream_fill_bytes", "stream_fill_bytes"},
	{"hmc.permuted_writes", "permuted_writes"},
	{"engine.exchange_bytes", "exchange_bytes"},
	{"engine.accesses", "accesses_total"},
}

// replayer replays requests on its own engine pool, so its acquire and
// release spans time the same engine.Pool code simulate.Run uses.
type replayer struct {
	tr     *tracer
	pool   *engine.Pool
	counts map[string]float64
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, pool: engine.NewPool(0), counts: map[string]float64{}}
}

// harvest adds one run's simulated counts to the replayer's totals.
func (rp *replayer) harvest(reg *obs.Registry) {
	snap := reg.Snapshot()
	for _, c := range simCounters {
		rp.counts[c.metric] += float64(snap.Counters[c.counter])
	}
	rp.counts["engine.sim_total_ns"] += snap.Gauges["sim_total_ns"]
}

// replay runs one request under spans. Requests marked Served mirror the
// scheduler, which attaches a private obs registry to every run; the
// others mirror mondrian-bench, and the replay collects the counts from
// the engine itself under its obs.collect span.
func (rp *replayer) replay(req request) (outcome, error) {
	p := req.Params
	reg := obs.NewRegistry()
	if req.Served {
		p.Obs = reg
	}
	var out outcome
	var err error
	if req.IsPlan {
		s := rp.tr.begin(rp.tr.root, spanRunPlan, req.ID)
		var r *simulate.PlanResult
		if r, err = simulate.RunPlan(req.System, req.Plan, p); err == nil {
			out = planOutcome(r)
		}
		rp.tr.end(s)
	} else {
		out, err = rp.run(req, p, reg)
	}
	if err != nil {
		return outcome{}, err
	}
	rp.harvest(reg)
	return out, nil
}

// run is simulate.Run under a root span: validate, acquire, run the
// operator, assemble the result, collect obs, release.
func (rp *replayer) run(req request, p simulate.Params, reg *obs.Registry) (outcome, error) {
	root := rp.tr.begin(rp.tr.root, spanRun, req.ID)
	defer rp.tr.end(root)
	span := func(name string, fn func() error) error {
		s := rp.tr.begin(root, name, req.ID)
		defer rp.tr.end(s)
		return fn()
	}
	if err := span(spanValidate, p.Validate); err != nil {
		return outcome{}, err
	}
	var e *engine.Engine
	if err := span(spanAcquire, func() (err error) {
		e, err = rp.pool.Acquire(p.EngineConfig(req.System))
		return err
	}); err != nil {
		return outcome{}, err
	}
	verified, err := rp.runOp(root, e, req, p)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	_ = span(spanStats, func() error {
		out = outcome{TotalNs: e.TotalNs(), DRAM: e.DRAMStats(), Energy: e.Energy(p.Energy), Verified: verified}
		return nil
	})
	_ = span(spanObs, func() error {
		e.CollectObs(reg)
		if req.Served {
			// The scheduler keeps these for its flight recorder.
			_, _ = e.Phases(), e.BuildSpans()
		}
		return nil
	})
	_ = span(spanRelease, func() error { rp.pool.Release(e); return nil })
	return out, nil
}

// opSpan names an operator's span after the operators function it times.
func opSpan(op simulate.Operator) string {
	return [...]string{"operators.Scan", "operators.Sort", "operators.GroupBy", "operators.Join"}[op]
}

// runOp is simulate's runOn for the uniform-key workloads the benchmark
// generates: generate, place, run the operator, verify.
func (rp *replayer) runOp(root *obs.Span, e *engine.Engine, req request, p simulate.Params) (bool, error) {
	span := func(name string, fn func() error) error {
		s := rp.tr.begin(root, name, req.ID)
		defer rp.tr.end(s)
		return fn()
	}
	place := func(rel *tuple.Relation) (regions []*engine.Region, err error) {
		err = span(spanPlace, func() error {
			for v, part := range rel.SplitEven(e.NumVaults()) {
				r, err := e.Place(v, part.Tuples)
				if err != nil {
					return err
				}
				regions = append(regions, r)
			}
			return nil
		})
		return regions, err
	}
	cfg := p.OperatorConfig(req.System)
	wc := workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
	ok := false
	switch req.Op {
	case simulate.OpScan:
		var rel *tuple.Relation
		var needle tuple.Key
		var want int
		_ = span(spanGen, func() error {
			rel = workload.Uniform("scan-in", wc)
			needle, want = workload.ScanTarget(rel, p.Seed+1)
			return nil
		})
		in, err := place(rel)
		if err != nil {
			return false, err
		}
		var r *operators.ScanResult
		if err := span(opSpan(req.Op), func() (err error) {
			r, err = operators.Scan(e, cfg, in, needle)
			return err
		}); err != nil {
			return false, err
		}
		_ = span(spanVerify, func() error {
			ok = r.Matches == want &&
				tuple.SameMultiset(operators.Gather(r.Out), operators.RefScan(rel.Tuples, needle))
			return nil
		})
	case simulate.OpSort:
		var rel *tuple.Relation
		_ = span(spanGen, func() error { rel = workload.Uniform("sort-in", wc); return nil })
		in, err := place(rel)
		if err != nil {
			return false, err
		}
		var r *operators.SortResult
		if err := span(opSpan(req.Op), func() (err error) {
			r, err = operators.Sort(e, cfg, in)
			return err
		}); err != nil {
			return false, err
		}
		_ = span(spanVerify, func() error { ok = sortedAndSame(r.Sorted, rel.Tuples); return nil })
	case simulate.OpGroupBy:
		var rel *tuple.Relation
		if err := span(spanGen, func() (err error) {
			rel, err = workload.GroupBy(wc, p.GroupSize)
			return err
		}); err != nil {
			return false, err
		}
		in, err := place(rel)
		if err != nil {
			return false, err
		}
		var r *operators.GroupByResult
		if err := span(opSpan(req.Op), func() (err error) {
			r, err = operators.GroupBy(e, cfg, in)
			return err
		}); err != nil {
			return false, err
		}
		_ = span(spanVerify, func() error {
			ok = tuple.SameMultiset(operators.Gather(r.Out), operators.RefGroupByTuples(rel.Tuples))
			return nil
		})
	case simulate.OpJoin:
		var rRel, sRel *tuple.Relation
		if err := span(spanGen, func() (err error) {
			rRel, sRel, err = workload.FKPair(workload.Config{Seed: p.Seed, Tuples: p.STuples}, p.RTuples)
			return err
		}); err != nil {
			return false, err
		}
		rIn, err := place(rRel)
		if err != nil {
			return false, err
		}
		sIn, err := place(sRel)
		if err != nil {
			return false, err
		}
		var r *operators.JoinResult
		if err := span(opSpan(req.Op), func() (err error) {
			r, err = operators.Join(e, cfg, rIn, sIn)
			return err
		}); err != nil {
			return false, err
		}
		_ = span(spanVerify, func() error {
			ok = tuple.SameMultiset(operators.Gather(r.Out), operators.RefJoin(rRel.Tuples, sRel.Tuples))
			return nil
		})
	default:
		return false, fmt.Errorf("replay: unknown operator %v", req.Op)
	}
	return ok, nil
}

// sortedAndSame checks bucket-local and global key order, and multiset
// equality with the input: simulate's check of a Sort result.
func sortedAndSame(buckets []*engine.Region, in []tuple.Tuple) bool {
	var got []tuple.Tuple
	var last tuple.Key
	for _, b := range buckets {
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
	return tuple.SameMultiset(got, in)
}
