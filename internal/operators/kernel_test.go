package operators

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// The steady-state allocation pins. A full operator run necessarily
// allocates (fresh output regions, result structs, goroutine fan-out),
// so the pins target the per-bucket bulk kernels — the code that runs
// once per bucket per pass and dominates the host time. After one
// warm-up call, every subsequent call must perform zero heap
// allocations.

// placedUnit builds an engine from the given variant, places ts in
// vault 0 and returns the engine, region and owning unit.
func placedUnit(t *testing.T, v variant, ts []tuple.Tuple) (*engine.Engine, *engine.Region, *engine.Unit) {
	t.Helper()
	e := newEngine(t, v.cfg)
	r, err := e.Place(0, ts)
	if err != nil {
		t.Fatal(err)
	}
	return e, r, unitForBucket(e, 0)
}

func TestScanKernelSteadyStateZeroAlloc(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 21, Tuples: 4000, KeySpace: 500})
	e, r, u := placedUnit(t, testVariants()[0], rel.Tuples) // CPU
	out, err := e.AllocOut(0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	needle, _ := workload.ScanTarget(rel, 7)
	e.BeginStep(engine.StepProfile{Name: "scan"})
	defer e.EndStep()
	want := -1
	kernel := func() {
		out.Reset()
		got := scanBulk(u, r, nil, out, needle, 1)
		if want >= 0 && got != want {
			t.Fatalf("scan kernel found %d matches, then %d", want, got)
		}
		want = got
	}
	kernel() // warm up the caches' and the out slab's state
	if want == 0 {
		t.Fatal("scan kernel found no matches; the pin would not cover the append path")
	}
	if allocs := testing.AllocsPerRun(20, kernel); allocs != 0 {
		t.Fatalf("scan kernel steady state allocates %v times per run", allocs)
	}
}

func TestQuicksortKernelSteadyStateZeroAlloc(t *testing.T) {
	rel := workload.Uniform("in", workload.Config{Seed: 23, Tuples: 4000, KeySpace: 1 << 16})
	e, r, u := placedUnit(t, testVariants()[0], rel.Tuples) // CPU
	if !u.Bulk() {
		t.Fatal("the pin needs the bulk path")
	}
	cm := DefaultCosts()
	e.BeginStep(engine.StepProfile{Name: "sort"})
	defer e.EndStep()
	kernel := func() { quicksortLocal(u, cm, r) }
	kernel()
	if allocs := testing.AllocsPerRun(20, kernel); allocs != 0 {
		t.Fatalf("quicksort kernel steady state allocates %v times per run", allocs)
	}
}
