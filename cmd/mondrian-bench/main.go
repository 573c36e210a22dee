// Command mondrian-bench regenerates every table and figure of the
// paper's evaluation (§7) and prints them alongside the published values.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/ecocloud-go/mondrian/internal/cliio"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/report"
	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mondrian-bench: ")
	var (
		small  = flag.Bool("small", false, "run the reduced-size configuration (fast)")
		sTup   = flag.Int("s-tuples", 0, "override large-relation cardinality")
		rTup   = flag.Int("r-tuples", 0, "override small join relation cardinality")
		params = flag.Bool("params", false, "print Table 3/4 simulation parameters and exit")
		only   = flag.String("only", "", "run a single experiment: table5|fig6|fig7|fig8|fig9")
		asJSON = flag.Bool("json", false, "emit all artifacts as JSON instead of text")
		manOut = flag.String("manifest", "", "append one compact JSON run manifest per (system, operator) to `file` and exit (\"-\" = stdout)")
		plans  = flag.Bool("plans", false, "with -manifest: emit query-plan manifests (system × plan × fused/staged) instead of single operators")
		par    = flag.Int("parallelism", 0, "host worker pool for per-vault execution (0 = GOMAXPROCS, 1 = serial; results are identical at every setting)")
		cpuOut = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
		memOut = flag.String("memprofile", "", "write a pprof heap profile at exit to `file`")

		// Multi-tenant serving benchmark (BENCH_PR9.json).
		qpsOut     = flag.String("qps", "", "run the multi-tenant serving benchmark (pooled vs fresh engines) and append its JSON summary to `file` (\"-\" = stdout)")
		qpsReqs    = flag.Int("qps-requests", 256, "total requests per lifecycle mode in the -qps benchmark")
		qpsTenants = flag.Int("qps-tenants", 8, "concurrent tenants in the -qps benchmark")
		qpsRate    = flag.Float64("qps-rate", 0, "open-loop offered arrival rate in requests/sec for -qps (0 = saturating arrivals)")
	)
	flag.Parse()

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	p := simulate.DefaultParams()
	if *small {
		p = simulate.TestParams()
	}
	if *sTup != 0 {
		p.STuples = *sTup
	}
	if *rTup != 0 {
		p.RTuples = *rTup
	}
	if *par != 0 {
		p.Parallelism = *par
	}
	// Reject bad overrides up front with the boundary's one-line typed
	// error instead of starting a long run (or, worse, a stack trace).
	if err := p.Validate(); err != nil {
		log.Fatal(err)
	}

	if *params {
		report.WriteParams(os.Stdout, p)
		return
	}

	if *qpsOut != "" {
		if err := runQPS(*qpsOut, *qpsReqs, *qpsTenants, *qpsRate); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *manOut != "" {
		write := writeManifests
		if *plans {
			write = writePlanManifests
		}
		if err := write(*manOut, p); err != nil {
			log.Fatal(err)
		}
		return
	}

	suite := simulate.NewSuite(p)
	if *asJSON {
		if err := report.WriteJSON(os.Stdout, suite); err != nil {
			log.Fatal(err)
		}
		return
	}
	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("table5", func() error {
		rows, err := suite.Table5()
		if err != nil {
			return err
		}
		report.WriteTable5(os.Stdout, rows)
		return nil
	})
	run("fig6", func() error {
		series, err := suite.Fig6()
		if err != nil {
			return err
		}
		report.WriteFig(os.Stdout, "Figure 6: probe speedup vs CPU (log scale)", series)
		return nil
	})
	run("fig7", func() error {
		series, err := suite.Fig7()
		if err != nil {
			return err
		}
		report.WriteFig(os.Stdout, "Figure 7: overall speedup vs CPU (log scale)", series)
		return nil
	})
	run("fig8", func() error {
		entries, err := suite.Fig8()
		if err != nil {
			return err
		}
		report.WriteFig8(os.Stdout, entries)
		return nil
	})
	run("fig9", func() error {
		series, err := suite.Fig9()
		if err != nil {
			return err
		}
		report.WriteFig(os.Stdout, "Figure 9: efficiency improvement vs CPU (log scale)", series)
		return nil
	})
	fmt.Println()
}

// writeManifests runs the full system × operator matrix with metrics
// enabled and appends one compact JSON manifest per run to path — the
// machine-readable benchmark artifact (make bench emits BENCH_PR5.json
// this way). Each run gets a fresh registry so counters never bleed
// across experiments.
func writeManifests(path string, p simulate.Params) error {
	return cliio.AppendFile(path, func(w io.Writer) error {
		for _, s := range simulate.Systems() {
			for _, op := range simulate.Operators() {
				p := p
				p.Obs = obs.NewRegistry()
				start := time.Now()
				res, err := simulate.Run(s, op, p)
				wall := time.Since(start)
				if err != nil {
					return fmt.Errorf("%v/%v: %w", s, op, err)
				}
				if !res.Verified {
					return fmt.Errorf("%v/%v: output verification failed", s, op)
				}
				m := simulate.BuildManifest(res, p, false)
				m.Host.WallNs = wall.Nanoseconds()
				m.Host.Timestamp = start.UTC().Format(time.RFC3339)
				if err := m.WriteJSONLine(w); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// writePlanManifests runs the system × plan matrix — each shape in fused
// and staged mode — with metrics enabled and appends one compact JSON
// manifest per run to path (make bench emits BENCH_PR8.json this way).
// The staged runs give the baseline the fused runs' exchange-byte and
// runtime savings are measured against.
func writePlanManifests(path string, p simulate.Params) error {
	return cliio.AppendFile(path, func(w io.Writer) error {
		for _, s := range simulate.Systems() {
			for _, pl := range simulate.Plans() {
				for _, staged := range []bool{false, true} {
					p := p
					p.NoFusion = staged
					p.Obs = obs.NewRegistry()
					start := time.Now()
					res, err := simulate.RunPlan(s, pl, p)
					wall := time.Since(start)
					if err != nil {
						return fmt.Errorf("%v/%v: %w", s, pl, err)
					}
					if !res.Verified {
						return fmt.Errorf("%v/%v: output verification failed", s, pl)
					}
					m := simulate.BuildPlanManifest(res, p, false)
					m.Host.WallNs = wall.Nanoseconds()
					m.Host.Timestamp = start.UTC().Format(time.RFC3339)
					if err := m.WriteJSONLine(w); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// qpsParams is the serving benchmark's per-request setup: the paper's
// full system shapes (4 cubes × 16 vaults — the engines a serving tier
// would actually host) with a dataset small enough that per-query work
// does not drown engine construction. Many small queries against a few
// big system shapes is exactly the regime the engine pool exists for.
func qpsParams() simulate.Params {
	p := simulate.DefaultParams()
	p.STuples = 1 << 10
	p.RTuples = 1 << 9
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

// qpsModeResult is one lifecycle mode's outcome in the QPS summary.
type qpsModeResult struct {
	QPS              float64 `json:"qps"`
	WallMs           float64 `json:"wall_ms"`
	Completed        int     `json:"completed"`
	Errors           int     `json:"errors"`
	MeanQueueMs      float64 `json:"mean_queue_ms"`
	TenantRuns       int     `json:"tenant_runs"`
	SimulatedSecs    float64 `json:"simulated_secs"`
	AdmissionRejects uint64  `json:"admission_rejects"`
}

// qpsSummary is the BENCH_PR9.json document: the same multi-tenant mix
// served once with the pooled engine lifecycle and once constructing a
// fresh engine per run, and the throughput ratio between them.
type qpsSummary struct {
	Bench      string        `json:"bench"`
	Requests   int           `json:"requests"`
	Tenants    int           `json:"tenants"`
	Workers    int           `json:"workers"`
	RateRps    float64       `json:"offered_rate_rps"`
	Pooled     qpsModeResult `json:"pooled"`
	Fresh      qpsModeResult `json:"fresh"`
	Speedup    float64       `json:"speedup"`
	PoolHits   uint64        `json:"pool_hits"`
	PoolMisses uint64        `json:"pool_misses"`
}

// runQPS drives the serve scheduler with an open-loop multi-tenant mix
// — scan queries against every registered system shape, round-robined
// across tenants — in both engine lifecycle modes and appends the JSON
// summary to path. Scans are the serving-tier workload: short queries
// whose cost a per-request engine rebuild visibly dominates.
func runQPS(path string, requests, tenants int, rate float64) error {
	if requests <= 0 || tenants <= 0 {
		return fmt.Errorf("qps: need positive request and tenant counts, got %d/%d", requests, tenants)
	}
	workers := runtime.GOMAXPROCS(0)
	sum := qpsSummary{
		Bench: "serve-qps", Requests: requests, Tenants: tenants,
		Workers: workers, RateRps: rate,
	}
	// Fresh first so the pooled mode's numbers include its own pool
	// warm-up misses rather than inheriting a pre-warmed pool.
	var err error
	if sum.Fresh, err = qpsMode(true, requests, tenants, workers, rate); err != nil {
		return err
	}
	before := simulate.PoolStats()
	if sum.Pooled, err = qpsMode(false, requests, tenants, workers, rate); err != nil {
		return err
	}
	after := simulate.PoolStats()
	sum.PoolHits = after.Hits - before.Hits
	sum.PoolMisses = after.Misses - before.Misses
	if sum.Fresh.QPS > 0 {
		sum.Speedup = sum.Pooled.QPS / sum.Fresh.QPS
	}
	fmt.Printf("serve-qps: %d requests, %d tenants, %d workers — pooled %.1f qps, fresh %.1f qps (%.2fx)\n",
		requests, tenants, workers, sum.Pooled.QPS, sum.Fresh.QPS, sum.Speedup)
	return cliio.AppendFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(sum)
	})
}

// qpsMode serves one full request mix in one lifecycle mode and returns
// its throughput summary.
func qpsMode(noPool bool, requests, tenants, workers int, rate float64) (qpsModeResult, error) {
	var out qpsModeResult
	p := qpsParams()
	p.NoPool = noPool
	reg := obs.NewRegistry()
	sched := serve.New(serve.Config{Workers: workers, QueueDepth: requests, Obs: reg})
	defer sched.Close()

	systems := simulate.Systems()
	tickets := make([]*serve.Ticket, 0, requests)
	start := time.Now()
	for i := 0; i < requests; i++ {
		if rate > 0 {
			// Open loop: arrival i is due at i/rate seconds regardless of
			// how far the service has gotten.
			if due := start.Add(time.Duration(float64(i) / rate * float64(time.Second))); time.Now().Before(due) {
				time.Sleep(time.Until(due))
			}
		}
		req := serve.Request{
			System:   systems[i%len(systems)],
			Operator: simulate.OpScan,
			Params:   p,
		}
		tenant := fmt.Sprintf("tenant-%d", i%tenants)
		tk, err := sched.Submit(tenant, req)
		if err != nil {
			var adm *serve.ErrAdmission
			if errors.As(err, &adm) {
				out.AdmissionRejects++
				continue
			}
			return out, err
		}
		tickets = append(tickets, tk)
	}
	var queueNs int64
	for _, tk := range tickets {
		r := tk.Wait()
		if r.Err != nil {
			out.Errors++
			continue
		}
		if !r.Result.Verified {
			return out, fmt.Errorf("qps: unverified result")
		}
		out.Completed++
		out.SimulatedSecs += r.Result.TotalNs / 1e9
		queueNs += r.QueueNs
	}
	wall := time.Since(start)
	out.WallMs = float64(wall.Nanoseconds()) / 1e6
	if wall > 0 {
		out.QPS = float64(out.Completed) / wall.Seconds()
	}
	if out.Completed > 0 {
		out.MeanQueueMs = float64(queueNs) / float64(out.Completed) / 1e6
	}
	snap := reg.Snapshot()
	for i := 0; i < tenants; i++ {
		t := fmt.Sprintf("tenant-%d", i)
		out.TenantRuns += int(snap.Counters[obs.Label("tenant_runs", "tenant", t)])
	}
	return out, nil
}
