package main

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlSuite = "paper-suite"
	wlHot   = "serve-scan-hot"
	wlCold  = "serve-mixed-cold"
)

var workloads = []string{wlSuite, wlHot, wlCold}

// tenants is the number of tenants the serve workloads round-robin over,
// as in mondrian-bench -qps.
const tenants = 8

// request is one operation of a workload: a suite cell or a served
// request. Served marks requests that go through the scheduler, which
// attaches a private obs registry to every run.
type request struct {
	ID     int
	Tenant string
	System simulate.System
	Op     simulate.Operator
	Plan   simulate.Plan
	IsPlan bool
	Served bool
	Params simulate.Params
}

func (r request) serveRequest() serve.Request {
	return serve.Request{System: r.System, Operator: r.Op, Plan: r.Plan, IsPlan: r.IsPlan, Params: r.Params}
}

func (r request) String() string {
	if r.IsPlan {
		return fmt.Sprintf("#%d %v/%v", r.ID, r.System, r.Plan)
	}
	return fmt.Sprintf("#%d %v/%v", r.ID, r.System, r.Op)
}

// splitmix64 derives independent seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derivedSeed is a non-negative dataset seed for stream position i.
func derivedSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(uint64(i))) >> 2)
}

// suiteParams is mondrian-bench's default configuration with the suite
// seed taken from the benchmark seed.
func suiteParams(seed int64) simulate.Params {
	p := simulate.DefaultParams()
	p.Seed = seed
	return p
}

// hotParams is the mondrian-bench -qps request shape: the paper's 4×16
// vault systems serving 1 Ki-tuple scans.
func hotParams(seed int64) simulate.Params {
	p := simulate.DefaultParams()
	p.STuples = 1 << 10
	p.RTuples = 1 << 9
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	p.Seed = derivedSeed(seed, -1)
	return p
}

// coldParams is the golden-suite shape (2×4 vaults, 8 Ki/4 Ki tuples).
func coldParams() simulate.Params {
	p := simulate.TestParams()
	p.STuples = 1 << 13
	p.RTuples = 1 << 12
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

// traffic is a serve workload's request stream: one rotation of request
// kinds, cycled over the 8 tenants. Both workloads rotate over every
// system; serve-scan-hot repeats one dataset, serve-mixed-cold gives
// every request its own seed.
type traffic struct {
	wl      string
	seed    int64
	kinds   []request
	tenants []string
}

func newTraffic(wl string, seed int64) *traffic {
	t := &traffic{wl: wl, seed: seed}
	for i := 0; i < tenants; i++ {
		t.tenants = append(t.tenants, fmt.Sprintf("tenant-%d", i))
	}
	systems := simulate.Systems()
	switch wl {
	case wlHot:
		for _, s := range systems {
			t.kinds = append(t.kinds, request{System: s, Op: simulate.OpScan, Params: hotParams(seed)})
		}
	case wlCold:
		for _, s := range systems {
			for _, op := range simulate.Operators() {
				t.kinds = append(t.kinds, request{System: s, Op: op, Params: coldParams()})
			}
			for _, pl := range simulate.Plans() {
				t.kinds = append(t.kinds, request{System: s, Plan: pl, IsPlan: true, Params: coldParams()})
			}
		}
	default:
		panic("newTraffic: not a serve workload: " + wl)
	}
	return t
}

// at returns request i of the stream.
func (t *traffic) at(i int) request {
	r := t.kinds[i%len(t.kinds)]
	r.ID, r.Tenant, r.Served = i, t.tenants[i%tenants], true
	if t.wl == wlCold {
		r.Params.Seed = derivedSeed(t.seed, i)
	}
	return r
}

// rotation is the length of one full cycle of the traffic: every system
// and request kind, and for serve-scan-hot every tenant too.
func (t *traffic) rotation() int {
	if t.wl == wlHot {
		return len(t.kinds) * tenants
	}
	return len(t.kinds)
}

// warmRequests is one request per distinct engine-pool key (one per
// system): scan-hot warms with its own traffic, mixed-cold with scans on
// seeds its measured stream never uses.
func warmRequests(wl string, seed int64) []request {
	hot := newTraffic(wlHot, seed)
	var out []request
	for k := range simulate.Systems() {
		r := hot.at(k)
		r.ID = -1 - k
		if wl == wlCold {
			r.Params = coldParams()
			r.Params.Seed = derivedSeed(seed, r.ID-1)
		}
		out = append(out, r)
	}
	return out
}

// suiteCells lists the (system, operator) cells in the order the default
// mondrian-bench artifact first touches them: Table 5, then Figs. 6–9.
func suiteCells(seed int64) []request {
	p := suiteParams(seed)
	var out []request
	seen := map[[2]int]bool{}
	add := func(s simulate.System, op simulate.Operator) {
		if k := [2]int{int(s), int(op)}; !seen[k] {
			seen[k] = true
			out = append(out, request{ID: len(out), System: s, Op: op, Params: p})
		}
	}
	add(simulate.CPU, simulate.OpJoin)
	for _, s := range simulate.Table5Systems() {
		add(s, simulate.OpJoin)
	}
	// Figs. 8 and 9 only revisit cells Figs. 6 and 7 already ran.
	for _, group := range [][]simulate.System{simulate.Fig6Systems(), simulate.Fig7Systems()} {
		for _, s := range group {
			for _, op := range simulate.Operators() {
				add(simulate.CPU, op)
				add(s, op)
			}
		}
	}
	return out
}
