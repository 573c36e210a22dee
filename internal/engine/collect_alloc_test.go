package engine_test

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/simulate"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// place spreads a relation evenly across the engine's vaults, as
// simulate.Run does.
func place(t *testing.T, e *engine.Engine, rel *tuple.Relation) []*engine.Region {
	t.Helper()
	var regions []*engine.Region
	for v, part := range rel.SplitEven(e.NumVaults()) {
		r, err := e.Place(v, part.Tuples)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	return regions
}

// TestCollectObsWarmZeroAlloc pins the serving layer's warm harvest: once
// a registry has seen an engine's shape, CollectObs of the next run on the
// same pooled engine only updates existing series — it allocates nothing
// and registers no name. The Join case covers the de-duplicated
// partition#2 phase.
func TestCollectObsWarmZeroAlloc(t *testing.T) {
	p := simulate.TestParams()
	p.STuples, p.RTuples = 1<<12, 1<<11
	wc := workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
	cases := []struct {
		name  string
		sys   simulate.System
		run   func(t *testing.T, e *engine.Engine, cfg operators.Config)
		phase string // a phase the run must report
	}{
		{"NMP/Scan", simulate.NMP, func(t *testing.T, e *engine.Engine, cfg operators.Config) {
			rel := workload.Uniform("scan-in", wc)
			needle, _ := workload.ScanTarget(rel, p.Seed+1)
			if _, err := operators.Scan(e, cfg, place(t, e, rel), needle); err != nil {
				t.Fatal(err)
			}
		}, "probe"},
		{"Mondrian/Join", simulate.Mondrian, func(t *testing.T, e *engine.Engine, cfg operators.Config) {
			r, s, err := workload.FKPair(workload.Config{Seed: p.Seed, Tuples: p.STuples}, p.RTuples)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := operators.Join(e, cfg, place(t, e, r), place(t, e, s)); err != nil {
				t.Fatal(err)
			}
		}, "partition#2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pool := engine.NewPool(1)
			reg := obs.NewRegistry()
			cfg := p.EngineConfig(c.sys)
			cfg.Obs = reg

			// Run 1 teaches the registry the shape.
			e, err := pool.Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.run(t, e, p.OperatorConfig(c.sys))
			e.CollectObs(reg)
			pool.Release(e)
			names := len(reg.Names())

			// Run 2 lands on the same engine, reset by the pool.
			e2, err := pool.Acquire(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e2 != e {
				t.Fatal("second acquire did not reuse the pooled engine")
			}
			c.run(t, e2, p.OperatorConfig(c.sys))
			var seen bool
			for _, ph := range e2.Phases() {
				seen = seen || ph.Name == c.phase
			}
			if !seen {
				t.Fatalf("run reported no %q phase", c.phase)
			}
			if allocs := testing.AllocsPerRun(5, func() { e2.CollectObs(reg) }); allocs != 0 {
				t.Errorf("warm CollectObs allocates %.1f times per harvest", allocs)
			}
			if got := len(reg.Names()); got != names {
				t.Errorf("warm harvest registered new names: %d, want %d", got, names)
			}
			pool.Release(e2)
		})
	}
}
