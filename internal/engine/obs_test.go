package engine

import (
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// stepProfile is a minimal profile for driving steps in tests.
var stepProfile = StepProfile{Name: "work", InstPerAccess: 4}

func TestPhaseTracking(t *testing.T) {
	cfg := nmpConfig(false)
	cfg.Obs = obs.NewRegistry()
	e := mustEngine(t, cfg)
	r, err := e.Place(0, make([]tuple.Tuple, 256))
	if err != nil {
		t.Fatal(err)
	}
	u := e.Units()[0]

	work := func() {
		e.BeginStep(stepProfile)
		u.ChargeRun(2, 256)
		u.ReadRunBytes(r.Addr, tuple.Size, 256)
		e.EndStep()
	}
	e.BeginPhase("partition")
	work()
	e.EndPhase()
	e.BeginPhase("partition") // Join runs two partition phases
	work()
	e.EndPhase()
	e.Barrier()
	e.BeginPhase("probe")
	work()
	e.EndPhase()

	phases := e.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	wantNames := []string{"partition", "partition#2", "probe"}
	for i, p := range phases {
		if p.Name != wantNames[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if p.SimulatedNs() <= 0 {
			t.Errorf("phase %q has non-positive duration", p.Name)
		}
		if p.deltas.accesses != 256 {
			t.Errorf("phase %q accesses = %d, want 256", p.Name, p.deltas.accesses)
		}
	}
	// The barrier between partition#2 and probe must not be attributed to
	// either phase's step range.
	if phases[1].StepEnd != 2 || phases[2].StepStart != 3 {
		t.Errorf("step ranges %d..%d / %d..%d leave the barrier misattributed",
			phases[1].StepStart, phases[1].StepEnd, phases[2].StepStart, phases[2].StepEnd)
	}

	e.CollectObs(cfg.Obs)
	snap := cfg.Obs.Snapshot()
	if snap.Counters["accesses_total"] != 768 {
		t.Errorf("accesses_total = %d, want 768", snap.Counters["accesses_total"])
	}
	if snap.Counters[`phase_accesses{phase="partition#2"}`] != 256 {
		t.Errorf("per-phase counter missing: %v", snap.Counters[`phase_accesses{phase="partition#2"}`])
	}
	// Per-unit counters carry the unit label.
	if snap.Counters[`unit_accesses{unit="0"}`] != 768 {
		t.Errorf("unit_accesses{unit=0} = %d, want 768", snap.Counters[`unit_accesses{unit="0"}`])
	}

	span := e.BuildSpans()
	if span == nil || span.EndNs != e.TotalNs() {
		t.Fatalf("root span mismatch")
	}
	// Children: 3 phase spans + the barrier step.
	var names []string
	for _, c := range span.Children {
		names = append(names, c.Name)
	}
	want := []string{"partition", "partition#2", "barrier", "probe"}
	if len(names) != len(want) {
		t.Fatalf("root children %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("root children %v, want %v", names, want)
		}
	}
}

func TestBeginPhaseNestingPanics(t *testing.T) {
	cfg := nmpConfig(false)
	cfg.Obs = obs.NewRegistry()
	e := mustEngine(t, cfg)
	e.BeginPhase("a")
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginPhase must panic")
		}
	}()
	e.BeginPhase("b")
}

func TestPhaseHooksDisabledAreNoOps(t *testing.T) {
	e := mustEngine(t, nmpConfig(false))
	// With no registry these must all be safe no-ops, in any order.
	e.EndPhase()
	e.BeginPhase("x")
	e.BeginPhase("y")
	e.EndPhase()
	if e.Phases() != nil {
		t.Fatal("disabled obs must record no phases")
	}
	if e.BuildSpans() != nil {
		t.Fatal("disabled obs must build no spans")
	}
	e.CollectObs(nil) // nil registry: no-op
}
