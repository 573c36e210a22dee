package serve

import (
	"fmt"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// rotation is every system × {each operator, each plan} once, spread over
// three tenants so each tenant's mix crosses systems and request kinds.
func rotation() (tenants []string, reqs []Request) {
	p := serveParams()
	for _, sys := range simulate.Systems() {
		for _, op := range simulate.Operators() {
			reqs = append(reqs, Request{System: sys, Operator: op, Params: p})
		}
		for _, pl := range simulate.Plans() {
			reqs = append(reqs, Request{System: sys, Plan: pl, IsPlan: true, Params: p})
		}
	}
	for i := range reqs {
		tenants = append(tenants, fmt.Sprintf("t%d", i%3))
	}
	return tenants, reqs
}

// direct runs one request the way a caller without the scheduler would,
// on a fresh registry, and returns that registry.
func direct(t *testing.T, req Request) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	p := req.Params
	p.Obs = reg
	var err error
	if req.IsPlan {
		_, err = simulate.RunPlan(req.System, req.Plan, p)
	} else {
		_, err = simulate.Run(req.System, req.Operator, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func nameSet(reg *obs.Registry) map[string]bool {
	set := make(map[string]bool)
	for _, n := range reg.Names() {
		set[n] = true
	}
	return set
}

// TestHarvestExactAndBounded pins the reused per-executor harvest
// registries: served over two rotations, each tenant's
// tenant_exchange_bytes equals the sum of exchange_bytes of the same
// requests run directly on fresh registries, and each executor's
// registry only ever holds names some direct run also produced — one set
// of series per shape, however many runs it harvests. The single-executor
// half pins the stronger form: having served every shape once, a second
// rotation registers no new name at all.
func TestHarvestExactAndBounded(t *testing.T) {
	tenants, reqs := rotation()
	want := make(map[string]uint64)
	shapes := make(map[string]bool) // union of every direct run's names
	for i, req := range reqs {
		reg := direct(t, req)
		want[tenants[i]] += 2 * reg.Counter("exchange_bytes").Value()
		for n := range nameSet(reg) {
			shapes[n] = true
		}
	}
	if want["t0"] == 0 {
		t.Fatal("rotation moved no exchange bytes; the test would prove nothing")
	}
	checkTenants := func(t *testing.T, reg *obs.Registry) {
		t.Helper()
		snap := reg.Snapshot()
		for tenant, w := range want {
			if got := snap.Counters[obs.Label("tenant_exchange_bytes", "tenant", tenant)]; got != w {
				t.Errorf("tenant %s: tenant_exchange_bytes = %d, want %d", tenant, got, w)
			}
		}
	}
	checkBounded := func(t *testing.T, harvest *obs.Registry, round int) int {
		t.Helper()
		names := nameSet(harvest)
		for n := range names {
			if !shapes[n] {
				t.Errorf("rotation %d: harvest registry holds %q, which no direct run produced", round, n)
			}
		}
		return len(names)
	}

	t.Run("workers", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := New(Config{Workers: 2, Obs: reg, HarvestExchange: true})
		defer s.Close()
		for round := 1; round <= 2; round++ {
			tickets := make([]*Ticket, len(reqs))
			for i, req := range reqs {
				tk, err := s.Submit(tenants[i], req)
				if err != nil {
					t.Fatal(err)
				}
				tickets[i] = tk
			}
			for i, tk := range tickets {
				if r := tk.Wait(); r.Err != nil {
					t.Fatalf("rotation %d request %d: %v", round, i, r.Err)
				}
			}
			served := make(map[string]bool)
			for _, h := range s.workerHarvests {
				checkBounded(t, h, round)
				for n := range nameSet(h) {
					served[n] = true
				}
			}
			if len(served) != len(shapes) {
				t.Errorf("rotation %d: executors hold %d distinct names, want the %d every shape produces",
					round, len(served), len(shapes))
			}
		}
		checkTenants(t, reg)
	})

	t.Run("dispatch", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := New(Config{Workers: 0, Obs: reg, HarvestExchange: true})
		defer s.Close()
		var counts [2]int
		for round := 1; round <= 2; round++ {
			for i, req := range reqs {
				if _, err := s.Submit(tenants[i], req); err != nil {
					t.Fatal(err)
				}
			}
			for s.dispatchNext() {
			}
			counts[round-1] = checkBounded(t, s.dispatchHarvest, round)
		}
		if counts[0] != len(shapes) || counts[1] != counts[0] {
			t.Errorf("harvest registry names: %d after rotation 1, %d after rotation 2, want %d both times",
				counts[0], counts[1], len(shapes))
		}
		checkTenants(t, reg)
	})
}
