package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// TestReplayFidelity is the replay's contract: for every system and
// operator, at the request shapes the workloads run, the span-timed
// replay reproduces simulate.Run's simulated time, DRAM statistics and
// energy exactly, so the host time it attributes is the time Run spends.
func TestReplayFidelity(t *testing.T) {
	shapes := []struct {
		name   string
		p      simulate.Params
		served bool
	}{
		{wlHot, hotParams(1), true},
		{wlCold, coldParams(), true},
		{wlSuite, suiteParams(digestSeed), false},
	}
	for _, sh := range shapes {
		if sh.name == wlSuite && testing.Short() {
			t.Log("skipping the paper-size cells in -short mode")
			continue
		}
		for _, s := range simulate.Systems() {
			for _, op := range simulate.Operators() {
				req := request{System: s, Op: op, Params: sh.p, Served: sh.served}
				want, err := runDirect(req)
				if err != nil {
					t.Fatalf("%s %v: simulate: %v", sh.name, req, err)
				}
				rp := newReplayer(newTracer("test"))
				got, err := rp.replay(req)
				if err != nil {
					t.Fatalf("%s %v: replay: %v", sh.name, req, err)
				}
				if got != want || !got.Verified {
					t.Errorf("%s %v: replay %+v, simulate.Run %+v", sh.name, req, got, want)
				}
				if rp.counts["engine.accesses"] == 0 {
					t.Errorf("%s %v: no simulated accesses harvested", sh.name, req)
				}
			}
		}
	}
}

func TestSelfNs(t *testing.T) {
	s := &obs.Span{StartNs: 0, EndNs: 100}
	s.Child("a", 10, 30)
	s.Child("b", 20, 40)  // overlaps a: covered once
	s.Child("c", 90, 120) // clipped to the parent
	if got := selfNs(s); got != 100-30-10 {
		t.Fatalf("selfNs = %v, want 60", got)
	}
}

// TestTraceIsChromeJSON replays a few requests of each serve workload and
// checks the trace they produce loads as Chrome trace_event JSON with a
// request id on every span.
func TestTraceIsChromeJSON(t *testing.T) {
	tr := newTracer("test")
	rp := newReplayer(tr)
	for _, wl := range []string{wlHot, wlCold} {
		tf := newTraffic(wl, 3)
		for i := 0; i < 12; i++ {
			if _, err := rp.replay(tf.at(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.finish()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "test" {
			continue
		}
		names[ev.Name] = true
		if _, ok := ev.Args["request_id"]; !ok {
			t.Errorf("span %s has no request_id", ev.Name)
		}
	}
	for _, want := range []string{spanRun, spanRunPlan, spanGen, spanAcquire, spanPlace, spanVerify, spanRelease, "operators.Join"} {
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units printed
// here in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, perfbench prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	for _, m := range doc.EndToEnd {
		if endToEnd[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q here", m.Name, m.Unit, endToEnd[m.Name])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if p := perLayer[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, p)
		}
	}
}

func TestSuiteCells(t *testing.T) {
	cells := suiteCells(digestSeed)
	var want map[string]string
	if err := json.Unmarshal(suiteDigestsJSON, &want); err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(want) {
		t.Fatalf("%d suite cells, %d recorded digests", len(cells), len(want))
	}
	for _, c := range cells {
		if want[cellKey(c)] == "" {
			t.Errorf("no recorded digest for %s", cellKey(c))
		}
	}
	if c := cells[0]; c.System != simulate.CPU || c.Op != simulate.OpJoin {
		t.Errorf("first cell %v, want CPU/Join (Table 5 runs first)", c)
	}
}

func TestTrafficFollowsSeed(t *testing.T) {
	for _, wl := range []string{wlHot, wlCold} {
		a, b := newTraffic(wl, 5), newTraffic(wl, 5)
		for i := 0; i < 2*a.rotation(); i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("%s request %d differs between streams of one seed", wl, i)
			}
		}
	}
	cold := newTraffic(wlCold, 5)
	seen := map[int64]bool{}
	for i := 0; i < 10*cold.rotation(); i++ {
		s := cold.at(i).Params.Seed
		if seen[s] {
			t.Fatalf("%s reuses dataset seed %d", wlCold, s)
		}
		seen[s] = true
	}
	if newTraffic(wlHot, 5).at(0).Params.Seed == newTraffic(wlHot, 6).at(0).Params.Seed {
		t.Errorf("%s dataset seed ignores the benchmark seed", wlHot)
	}
}

// TestServeLoop drives the closed loop with several clients for a moment
// (run it under -race) and checks every request is accounted for.
func TestServeLoop(t *testing.T) {
	sched, refs, _, err := serveSetup(wlHot, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	st := runStats{}
	serveLoop(sched, newTraffic(wlHot, 1), refs, 3, 300*time.Millisecond, &st)
	if st.Failed != 0 || st.Completed == 0 || st.Attempted != st.Completed {
		t.Fatalf("attempted %d, completed %d, failed %d: %v", st.Attempted, st.Completed, st.Failed, st.Errors)
	}
	if st.LatN != st.Completed || !(st.LatP50 > 0 && st.LatP99 >= st.LatP50) {
		t.Errorf("latency p50 %v p99 %v over %d samples", st.LatP50, st.LatP99, st.LatN)
	}
}
