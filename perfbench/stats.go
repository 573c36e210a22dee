package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// runStats is what one measured child process reports to the parent.
type runStats struct {
	SetupNs   int64
	Attempted int
	Failed    int
	Completed int
	Errors    []string `json:",omitempty"`
	// WindowNs is the measured wall time: the suite pass, or the serve
	// loop from its first Submit until its last response.
	WindowNs int64
	// Lat is the latency in ms of every successful operation. The suite
	// sends it to the parent; the serve loop sends only the summary.
	Lat    []float64 `json:",omitempty"`
	LatP50 float64
	LatP99 float64
	LatN   int
	RotMs  float64 // serve: median wall time of one full traffic rotation
	RotN   int
	MaxRSS int64 // KiB, filled in by the parent from the child's rusage
	Host   hostCounters
	Layers map[string]float64 `json:",omitempty"`
	Trace  string             `json:",omitempty"`

	DigestsMatched int
}

// maxErrors bounds the failure messages a run keeps.
const maxErrors = 8

func (st *runStats) fail(r request, msg string) {
	st.Failed++
	if len(st.Errors) < maxErrors {
		st.Errors = append(st.Errors, fmt.Sprintf("%v: %s", r, msg))
	}
}

// latencies returns lat plus one entry per failed operation, each as long
// as the whole measured window, so that a failure misses every latency
// limit a run could meet.
func latencies(lat []float64, failed int, windowNs int64) []float64 {
	out := append([]float64(nil), lat...)
	for i := 0; i < failed; i++ {
		out = append(out, float64(windowNs)/1e6)
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of xs (sorted in place), or 0
// when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is the middle value of xs (mean of the middle two when even),
// or 0 when xs is empty; it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
