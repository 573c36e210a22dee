package main

import (
	"sort"
	"time"

	"github.com/ecocloud-go/mondrian/internal/obs"
)

// Host-time spans. Each replayed call is timed from outside the program
// and recorded as an obs.Span whose StartNs/EndNs are host nanoseconds
// since the tracer's origin, so the tree renders through the program's
// own obs.WriteChromeTrace. Every span of one request carries the same
// request_id attribute.

// Span names, one per layer boundary the replay crosses.
const (
	spanRun      = "simulate.Run"
	spanRunPlan  = "simulate.RunPlan"
	spanValidate = "simulate.validate"
	spanAcquire  = "engine.acquire"
	spanGen      = "workload.gen"
	spanPlace    = "engine.place"
	spanVerify   = "simulate.verify"
	spanStats    = "engine.stats"
	spanObs      = "obs.collect"
	spanRelease  = "engine.release"
)

// tracer stamps spans against one monotonic origin.
type tracer struct {
	origin time.Time
	root   *obs.Span
}

func newTracer(name string) *tracer {
	return &tracer{origin: time.Now(), root: &obs.Span{Name: name}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) }

// begin opens a child span of parent tagged with the request id.
func (t *tracer) begin(parent *obs.Span, name string, id int) *obs.Span {
	s := parent.Child(name, t.now(), 0)
	s.SetAttr("request_id", float64(id))
	return s
}

func (t *tracer) end(s *obs.Span) { s.EndNs = t.now() }

// finish closes the root span over everything recorded under it.
func (t *tracer) finish() *obs.Span {
	t.root.EndNs = t.now()
	return t.root
}

// selfNs is a span's duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func selfNs(s *obs.Span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, s.StartNs
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.DurationNs() - covered
}

// layerTimes sums self time and total duration by span name over every
// span below root (root itself excluded).
func layerTimes(root *obs.Span) (self, total map[string]float64) {
	self, total = map[string]float64{}, map[string]float64{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		for _, c := range s.Children {
			self[c.Name] += selfNs(c)
			total[c.Name] += c.DurationNs()
			walk(c)
		}
	}
	walk(root)
	return self, total
}
