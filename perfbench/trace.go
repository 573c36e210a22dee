package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// Serve workloads replay this many rotations of their traffic in a traced
// run: a fixed request set, so the simulated counts repeat exactly.
const (
	hotTracedRotations  = 20
	coldTracedRotations = 2
)

func tracedRequests(tf *traffic) []request {
	n := tf.rotation() * hotTracedRotations
	if tf.wl == wlCold {
		n = tf.rotation() * coldTracedRotations
	}
	out := make([]request, n)
	for i := range out {
		out[i] = tf.at(i)
	}
	return out
}

// runDirect runs a request through simulate.Run or RunPlan as the
// scheduler (Served) or mondrian-bench would.
func runDirect(req request) (outcome, error) {
	p := req.Params
	if req.Served {
		p.Obs = obs.NewRegistry()
	}
	if req.IsPlan {
		r, err := simulate.RunPlan(req.System, req.Plan, p)
		if err != nil {
			return outcome{}, err
		}
		return planOutcome(r), nil
	}
	r, err := simulate.Run(req.System, req.Op, p)
	if err != nil {
		return outcome{}, err
	}
	return resultOutcome(r), nil
}

// directPass runs reqs serially through runDirect and returns their
// outcomes and the pass's wall time: the untraced side of
// trace.overhead_ratio and the reference the replay must reproduce.
func directPass(reqs []request, st *runStats) ([]outcome, time.Duration) {
	refs := make([]outcome, len(reqs))
	t0 := time.Now()
	for i, req := range reqs {
		st.Attempted++
		out, err := runDirect(req)
		if err != nil {
			st.fail(req, err.Error())
		}
		refs[i] = out
	}
	return refs, time.Since(t0)
}

// tracePass replays reqs serially under spans, checks each against its
// reference outcome, and turns the span tree into per-layer metrics. warm
// requests fill the replay's engine pool first, untimed and unrecorded.
func tracePass(name string, reqs, warm []request, refs []outcome, direct time.Duration, outDir string, st *runStats) error {
	rp := newReplayer(newTracer("warm-up"))
	for _, w := range warm {
		if _, err := rp.replay(w); err != nil {
			return fmt.Errorf("replay warm-up %v: %w", w, err)
		}
	}
	tr := newTracer(name)
	rp.tr, rp.counts = tr, map[string]float64{}
	t0 := time.Now()
	for i, req := range reqs {
		st.Attempted++
		out, err := rp.replay(req)
		switch {
		case err != nil:
			st.fail(req, "replay: "+err.Error())
		case out != refs[i]:
			st.fail(req, "replay result differs from simulate's")
		}
	}
	replay := time.Since(t0)
	root := tr.finish()

	self, total := layerTimes(root)
	sec := func(name string) float64 { return self[name] / 1e9 }
	l := st.Layers
	kernelNs := self[spanRunPlan]
	for _, op := range simulate.Operators() {
		l[opMetric(op)] = sec(opSpan(op))
		kernelNs += self[opSpan(op)]
	}
	l["plan.run_s"] = sec(spanRunPlan)
	if acc := rp.counts["engine.accesses"]; acc > 0 {
		l["operators.host_ns_per_access"] = kernelNs / acc
	}
	l["workload.gen_s"] = sec(spanGen)
	l["engine.acquire_s"] = sec(spanAcquire)
	l["engine.place_s"] = sec(spanPlace)
	l["engine.release_s"] = sec(spanRelease)
	l["simulate.verify_s"] = sec(spanVerify)
	l["obs.collect_s"] = sec(spanObs)
	l["simulate.run_s"] = total[spanRun] / 1e9
	l["simulate.unattributed_s"] = sec(spanRun)
	if total[spanRun] > 0 {
		l["trace.coverage_ratio"] = 1 - self[spanRun]/total[spanRun]
	}
	l["trace.overhead_ratio"] = replay.Seconds() / direct.Seconds()
	for k, v := range rp.counts {
		l[k] = v
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	st.Trace = filepath.Join(outDir, name+".trace.json")
	f, err := os.Create(st.Trace)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, root); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func opMetric(op simulate.Operator) string {
	return [...]string{"operators.scan_s", "operators.sort_s", "operators.groupby_s", "operators.join_s"}[op]
}
