package engine

import (
	"math"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// workout runs a fixed little workload on a pristine engine — placement,
// a read-sweep step, a barrier — and returns the accumulated simulated
// time. It must be a pure function of the engine's construction state, so
// identical outcomes on a fresh and a reset engine prove Reset restored
// everything the simulation reads.
func workout(t *testing.T, e *Engine) float64 {
	t.Helper()
	const n = 2048
	r, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	e.BeginStep(StepProfile{Name: "sweep", InstPerAccess: 4})
	u := e.Units()[0]
	for i := 0; i < n; i++ {
		u.Charge(4)
		u.ReadBytes(r.Addr+int64(i)*tuple.Size, tuple.Size)
	}
	e.EndStep()
	e.Barrier()
	return e.TotalNs()
}

func TestResetRestoresPristineState(t *testing.T) {
	for name, cfg := range map[string]Config{
		"cpu":      cpuConfig(),
		"nmp":      nmpConfig(true),
		"mondrian": mondrianConfig(),
	} {
		t.Run(name, func(t *testing.T) {
			e := mustEngine(t, cfg)
			first := workout(t, e)
			firstDRAM := e.DRAMStats()
			if first <= 0 || firstDRAM.Accesses() == 0 {
				t.Fatalf("workout did nothing: total=%v dram=%+v", first, firstDRAM)
			}

			e.Reset()
			if e.TotalNs() != 0 || len(e.Steps()) != 0 || e.Barriers() != 0 {
				t.Fatalf("reset left run accounting: total=%v steps=%d barriers=%d",
					e.TotalNs(), len(e.Steps()), e.Barriers())
			}
			if ds := e.DRAMStats(); ds != (dram.Stats{}) {
				t.Fatalf("reset left DRAM stats: %+v", ds)
			}
			if e.llc != nil && e.llc.Stats().Accesses != 0 {
				t.Fatal("reset left LLC stats")
			}
			for _, u := range e.Units() {
				if u.L1 != nil && u.L1.Stats().Accesses != 0 {
					t.Fatal("reset left L1 stats")
				}
				if u.busyNs != 0 || u.instTotal != 0 || u.accessTotal != 0 {
					t.Fatal("reset left unit accounting")
				}
			}

			// The definitive check: the same workload on the reset engine
			// reproduces the fresh run exactly (same addresses, same
			// row-buffer behaviour, same step timing).
			second := workout(t, e)
			if second != first {
				t.Fatalf("reset run differs from fresh run: %v vs %v", second, first)
			}
			if got := e.DRAMStats(); got != firstDRAM {
				t.Fatalf("reset run DRAM stats differ: %+v vs %+v", got, firstDRAM)
			}
		})
	}
}

func TestResetRetainsScratchCapacity(t *testing.T) {
	const n = 4096
	e := mustEngine(t, nmpConfig(false))
	u := e.Units()[0]

	// Warm the unit's cache-run buffer once.
	r, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	u.ReadRunBytes(r.Addr, tuple.Size, n)
	warm := cap(u.runRes.Ops)
	if warm == 0 {
		t.Fatal("bulk run left the cache-run buffer empty")
	}

	e.Reset()
	if got := cap(u.runRes.Ops); got != warm {
		t.Fatalf("Reset dropped the cache-run buffer: cap %d, want %d", got, warm)
	}
	// Pooled re-run steady state: after Reset, bulk runs stay
	// allocation-free on the retained capacity.
	r2, err := e.Place(0, make([]tuple.Tuple, n))
	if err != nil {
		t.Fatal(err)
	}
	run := func() { u.ReadRunBytes(r2.Addr, tuple.Size, n) }
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("bulk run allocates %.1f times after Reset", allocs)
	}
}

func TestPoolReuseAndKeying(t *testing.T) {
	p := NewPool(2)
	cfg := mondrianConfig()

	e1, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workout(t, e1)
	p.Release(e1)
	if p.Idle() != 1 {
		t.Fatalf("idle = %d, want 1", p.Idle())
	}

	e2, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatal("same-key acquire did not reuse the released engine")
	}
	if e2.TotalNs() != 0 || len(e2.Steps()) != 0 {
		t.Fatal("pooled engine was not pristine")
	}

	// A different construction-shaping field is a different key.
	other := cfg
	other.L1 = cfg.L1
	other.StreamBuffers = 4
	e3, err := p.Acquire(other)
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e2 {
		t.Fatal("different configs shared one pooled engine")
	}

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

func TestPoolBoundDiscards(t *testing.T) {
	p := NewPool(2)
	cfg := nmpConfig(false)
	var es []*Engine
	for i := 0; i < 3; i++ {
		e, err := p.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	for _, e := range es {
		p.Release(e)
	}
	if p.Idle() != 2 {
		t.Fatalf("idle = %d, want the per-key bound 2", p.Idle())
	}
	if st := p.Stats(); st.Discards != 1 {
		t.Fatalf("stats = %+v, want 1 discard", st)
	}
	p.Release(nil) // no-op
}

func TestPoolRebindsObsRegistry(t *testing.T) {
	p := NewPool(1)
	cfg := mondrianConfig()
	e, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(e)

	reg := obs.NewRegistry()
	cfg.Obs = reg
	e2, err := p.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e {
		t.Fatal("registry binding must not change the pool key")
	}
	if e2.Config().Obs != reg {
		t.Fatal("acquire did not rebind the observability registry")
	}
	e2.SetObs(nil)
	if e2.Config().Obs != nil {
		t.Fatal("SetObs(nil) did not clear the registry")
	}
}

// TestPoolRejectsNonFiniteConfig pins the struct pool key's precondition:
// NaN never compares equal, so a NaN config that reached the key would
// park every release under a fresh idle entry. Validate refuses
// non-finite floats before an engine is ever built, so none is parked.
func TestPoolRejectsNonFiniteConfig(t *testing.T) {
	p := NewPool(2)
	nan := mondrianConfig()
	nan.BarrierNs = math.NaN()
	inf := nmpConfig(false)
	inf.L1.HitLatencyNs = math.Inf(1)
	for name, cfg := range map[string]Config{"BarrierNs=NaN": nan, "L1.HitLatencyNs=+Inf": inf} {
		for i := 0; i < 3; i++ {
			e, err := p.Acquire(cfg)
			if err == nil {
				p.Release(e)
				t.Fatalf("%s: Acquire accepted a non-finite config", name)
			}
		}
	}
	if n := p.Idle(); n != 0 {
		t.Fatalf("idle = %d after rejected acquires, want 0", n)
	}
}
