// Command mondrian-sim runs a single operator on a single system
// configuration and prints a detailed timing, bandwidth, DRAM and energy
// report — the tool for exploring one point of the design space.
//
// Beyond the registered systems, the spec-override flags derive a custom
// variant of the selected system on the fly:
//
//	mondrian-sim -system mondrian -op join -s-tuples 262144
//	mondrian-sim -system mondrian -op scan -stream-buffers 4
//	mondrian-sim -system nmp -op join -topology star -l1-bytes 16384
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/ecocloud-go/mondrian/internal/cliio"
	"github.com/ecocloud-go/mondrian/internal/noc"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mondrian-sim: ")
	if err := run(); err != nil {
		// Every failure — invalid flag values included — is a one-line
		// typed error from the simulate boundary, never a stack trace.
		log.Fatal(err)
	}
}

// customize derives a one-off system from base's registered spec with
// the given overrides applied, registers it under a derived name, and
// returns its handle. Zero values leave the base spec untouched.
func customize(base simulate.System, topo string, l1Bytes, streamBufs int) (simulate.System, error) {
	sp, ok := simulate.SpecOf(base)
	if !ok {
		return 0, fmt.Errorf("unknown system %v", base)
	}
	sp.Name += "+custom"
	switch strings.ToLower(topo) {
	case "":
	case "star":
		sp.Engine.Topology = noc.Star
	case "full", "fully-connected":
		sp.Engine.Topology = noc.FullyConnected
	default:
		return 0, fmt.Errorf("unknown topology %q (want star or full)", topo)
	}
	if l1Bytes != 0 {
		if l1Bytes < 0 {
			return 0, fmt.Errorf("negative L1 size %d bytes", l1Bytes)
		}
		sp.Engine.L1.SizeBytes = l1Bytes
	}
	if streamBufs != 0 {
		if streamBufs < 0 {
			return 0, fmt.Errorf("negative stream-buffer count %d", streamBufs)
		}
		sp.Engine.StreamBuffers = streamBufs
	}
	return simulate.Register(sp)
}

func run() error {
	defaults := simulate.DefaultParams()
	var (
		sysName = flag.String("system", "mondrian", "system: "+strings.ToLower(strings.Join(simulate.SystemNames(), ", ")))
		opName  = flag.String("op", "join", "operator: "+strings.Join(simulate.OperatorNames(), ", ")+
			"; or a query plan: "+strings.Join(simulate.PlanNames(), ", "))
		staged   = flag.Bool("staged", false, "disable the query-plan compiler's re-shuffle elision (plans only): every stage re-partitions from scratch")
		sTup     = flag.Int("s-tuples", 1<<16, "large-relation cardinality")
		rTup     = flag.Int("r-tuples", 1<<15, "small join relation cardinality")
		group    = flag.Int("group-size", defaults.GroupSize, "average group size (groupby)")
		keySpace = flag.Uint64("keyspace", defaults.KeySpace, "key space bound (must be a power of two)")
		vaultCap = flag.Int64("vault-cap", defaults.VaultCapBytes, "per-vault DRAM capacity in bytes")
		par      = flag.Int("parallelism", defaults.Parallelism, "host worker pool (0 = GOMAXPROCS, 1 = serial)")
		seed     = flag.Int64("seed", 42, "workload seed")
		steps    = flag.Bool("steps", false, "print the per-step timeline")
		repeat   = flag.Int("repeat", 1, "re-run the same request N times on one pooled engine and report the amortized construction overhead per run")
		noPool   = flag.Bool("no-pool", defaults.NoPool, "construct a fresh engine per run instead of drawing a reset one from the engine pool; simulated results are byte-identical")

		// Skew knobs. -skew-aware defaults to the MONDRIAN_SKEW_AWARE
		// environment override so the flag and variable compose.
		skewAware = flag.Bool("skew-aware", defaults.SkewAware, "enable skew-aware execution (heavy-hitter detection, exact provisioning, hot-key splitting, work stealing)")
		zipfS     = flag.Float64("zipf-s", 0, "Zipf exponent for skewed workload keys (0 = uniform; must be > 1 otherwise)")
		overprov  = flag.Float64("overprovision", 0, "destination-buffer overprovision factor (0 = operator default)")

		// Observability outputs. Setting any of them enables the metrics
		// registry for the run; "-" writes to stdout.
		metricsOut = flag.String("metrics", "", "write the JSON run manifest to `file` (\"-\" = stdout)")
		promOut    = flag.String("prom", "", "write the metrics in Prometheus text format to `file` (\"-\" = stdout)")
		spans      = flag.Bool("spans", false, "collect the simulated-time span tree: print it and embed it in -metrics")
		chromeOut  = flag.String("chrome-trace", "", "write the span tree as Chrome trace_event JSON to `file` (\"-\" = stdout); open in Perfetto or chrome://tracing")

		// Spec overrides: derive a custom variant of -system.
		topo       = flag.String("topology", "", "override the inter-cube topology: star or full")
		l1Bytes    = flag.Int("l1-bytes", 0, "override the per-unit L1 capacity in bytes (0 = system default)")
		streamBufs = flag.Int("stream-buffers", 0, "override the per-unit stream-buffer count (0 = architectural default)")
		cpuCores   = flag.Int("cpu-cores", 0, "override the host core count on CPU systems (0 = default)")
	)
	flag.Parse()

	sys, err := simulate.ParseSystem(*sysName)
	if err != nil {
		return err
	}
	// -op selects a single operator or, when the name matches a registered
	// query shape, a compiled multi-operator plan.
	op, opErr := simulate.ParseOperator(*opName)
	var pl simulate.Plan
	isPlan := false
	if opErr != nil {
		if pl, err = simulate.ParsePlan(*opName); err != nil {
			return opErr
		}
		isPlan = true
	}
	if *topo != "" || *l1Bytes != 0 || *streamBufs != 0 {
		if sys, err = customize(sys, *topo, *l1Bytes, *streamBufs); err != nil {
			return err
		}
	}

	p := defaults
	p.STuples = *sTup
	p.RTuples = *rTup
	p.GroupSize = *group
	p.KeySpace = *keySpace
	p.VaultCapBytes = *vaultCap
	p.Parallelism = *par
	p.Seed = *seed
	p.SkewAware = *skewAware
	p.ZipfS = *zipfS
	p.Overprovision = *overprov
	p.NoFusion = *staged
	p.NoPool = *noPool
	if *cpuCores != 0 {
		p.CPUCores = *cpuCores
	}

	observing := *metricsOut != "" || *promOut != "" || *spans || *chromeOut != ""
	if observing {
		p.Obs = obs.NewRegistry()
	}
	if isPlan {
		wall, err := runPlan(sys, pl, p, *steps, *spans, *metricsOut, *promOut, *chromeOut)
		if err != nil {
			return err
		}
		return repeatReport(*repeat, wall, func() (time.Duration, error) {
			rp := p
			rp.Obs = nil
			t0 := time.Now()
			_, err := simulate.RunPlan(sys, pl, rp)
			return time.Since(t0), err
		})
	}
	start := time.Now()
	res, err := simulate.Run(sys, op, p)
	wall := time.Since(start)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\t%v\n", res.System)
	fmt.Fprintf(w, "operator\t%v\n", res.Operator)
	fmt.Fprintf(w, "verified\t%v\n", res.Verified)
	fmt.Fprintf(w, "partition\t%.3f ms\n", res.PartitionNs/1e6)
	fmt.Fprintf(w, "probe\t%.3f ms\n", res.ProbeNs/1e6)
	fmt.Fprintf(w, "total\t%.3f ms\n", res.TotalNs/1e6)
	if res.DistBWPerVaultGBs > 0 {
		fmt.Fprintf(w, "distribution BW\t%.2f GB/s per vault\n", res.DistBWPerVaultGBs)
	}
	if res.ProbeBWPerVaultGBs > 0 {
		fmt.Fprintf(w, "probe BW\t%.2f GB/s per vault\n", res.ProbeBWPerVaultGBs)
	}
	fmt.Fprintf(w, "DRAM accesses\t%d (%.1f%% row hits)\n",
		res.DRAM.Accesses(), res.DRAM.RowHitRate()*100)
	fmt.Fprintf(w, "row activations\t%d\n", res.DRAM.Activations)
	fmt.Fprintf(w, "bytes moved\t%d\n", res.DRAM.TotalBytes())
	fmt.Fprintf(w, "energy\t%s\n", res.Energy)
	if err := w.Flush(); err != nil {
		return err
	}

	if *steps {
		fmt.Println("\nstep timeline:")
		for i, st := range res.Steps {
			if st.Ns == 0 {
				continue
			}
			fmt.Printf("  %2d %-32s %10.1f µs  (compute %.1f µs, mem %.1f µs, net %.1f µs, IPC %.2f)\n",
				i, st.Name, st.Ns/1e3, st.MaxUnitNs/1e3, st.MemNs/1e3, st.NetNs/1e3, st.AggIPC)
		}
	}

	rerun := func() (time.Duration, error) {
		rp := p
		rp.Obs = nil
		t0 := time.Now()
		_, err := simulate.Run(sys, op, rp)
		return time.Since(t0), err
	}
	if !observing {
		return repeatReport(*repeat, wall, rerun)
	}
	m := simulate.BuildManifest(res, p, *spans)
	m.Host.WallNs = wall.Nanoseconds()
	m.Host.Timestamp = start.UTC().Format(time.RFC3339)
	if *spans {
		fmt.Println("\nspan tree (simulated time):")
		if err := res.Spans.WriteTree(os.Stdout, 2); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := cliio.WriteFile(*metricsOut, func(w io.Writer) error {
			return m.WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	if *promOut != "" {
		if err := cliio.WriteFile(*promOut, func(w io.Writer) error {
			return obs.WritePrometheus(w, p.Obs)
		}); err != nil {
			return err
		}
	}
	if *chromeOut != "" {
		if err := cliio.WriteFile(*chromeOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, res.Spans)
		}); err != nil {
			return err
		}
	}
	return repeatReport(*repeat, wall, rerun)
}

// repeatReport re-runs the request n-1 more times and prints the pooled
// lifecycle's amortization summary. The first run paid engine
// construction (a pool miss); steady-state runs draw a reset engine from
// the pool, so the first-vs-steady difference is the construction
// overhead pooling amortizes away. With -no-pool every run pays it
// again, which makes the two modes directly comparable.
func repeatReport(n int, first time.Duration, rerun func() (time.Duration, error)) error {
	if n <= 1 {
		return nil
	}
	var steady time.Duration
	for i := 1; i < n; i++ {
		d, err := rerun()
		if err != nil {
			return err
		}
		steady += d
	}
	mean := steady / time.Duration(n-1)
	over := first - mean
	if over < 0 {
		over = 0
	}
	st := simulate.PoolStats()
	fmt.Printf("\nrepeat: %d runs — first %.3f ms, steady-state mean %.3f ms\n",
		n, float64(first.Nanoseconds())/1e6, float64(mean.Nanoseconds())/1e6)
	fmt.Printf("construction overhead: %.3f ms once, %.3f ms amortized per run (engine pool: %d hits, %d misses)\n",
		float64(over.Nanoseconds())/1e6, float64(over.Nanoseconds())/1e6/float64(n), st.Hits, st.Misses)
	return nil
}

// runPlan executes a compiled query plan and prints the per-stage
// report, returning the first run's host wall time.
func runPlan(sys simulate.System, pl simulate.Plan, p simulate.Params,
	steps, spans bool, metricsOut, promOut, chromeOut string) (time.Duration, error) {
	start := time.Now()
	res, err := simulate.RunPlan(sys, pl, p)
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "system\t%v\n", res.System)
	fmt.Fprintf(w, "plan\t%v\n", res.Plan)
	if p.NoFusion {
		fmt.Fprintf(w, "mode\tstaged (fusion disabled)\n")
	} else {
		noun := "re-shuffles"
		if res.Elisions == 1 {
			noun = "re-shuffle"
		}
		fmt.Fprintf(w, "mode\tfused (%d %s elided)\n", res.Elisions, noun)
	}
	fmt.Fprintf(w, "verified\t%v\n", res.Verified)
	for _, st := range res.Stages {
		mark := ""
		if st.Fused {
			mark = "  [fused]"
		}
		fmt.Fprintf(w, "stage %s\t%.3f ms  (%d tuples out)%s\n", st.Name, st.Ns/1e6, st.Tuples, mark)
	}
	fmt.Fprintf(w, "total\t%.3f ms\n", res.TotalNs/1e6)
	fmt.Fprintf(w, "DRAM accesses\t%d (%.1f%% row hits)\n",
		res.DRAM.Accesses(), res.DRAM.RowHitRate()*100)
	fmt.Fprintf(w, "row activations\t%d\n", res.DRAM.Activations)
	fmt.Fprintf(w, "bytes moved\t%d\n", res.DRAM.TotalBytes())
	fmt.Fprintf(w, "energy\t%s\n", res.Energy)
	if err := w.Flush(); err != nil {
		return wall, err
	}

	if steps {
		fmt.Println("\nstep timeline:")
		for i, st := range res.Steps {
			if st.Ns == 0 {
				continue
			}
			fmt.Printf("  %2d %-32s %10.1f µs  (compute %.1f µs, mem %.1f µs, net %.1f µs, IPC %.2f)\n",
				i, st.Name, st.Ns/1e3, st.MaxUnitNs/1e3, st.MemNs/1e3, st.NetNs/1e3, st.AggIPC)
		}
	}

	if p.Obs == nil {
		return wall, nil
	}
	m := simulate.BuildPlanManifest(res, p, spans)
	m.Host.WallNs = wall.Nanoseconds()
	m.Host.Timestamp = start.UTC().Format(time.RFC3339)
	if spans {
		fmt.Println("\nspan tree (simulated time):")
		if err := res.Spans.WriteTree(os.Stdout, 2); err != nil {
			return wall, err
		}
	}
	if metricsOut != "" {
		if err := cliio.WriteFile(metricsOut, func(w io.Writer) error {
			return m.WriteJSON(w)
		}); err != nil {
			return wall, err
		}
	}
	if promOut != "" {
		if err := cliio.WriteFile(promOut, func(w io.Writer) error {
			return obs.WritePrometheus(w, p.Obs)
		}); err != nil {
			return wall, err
		}
	}
	if chromeOut != "" {
		if err := cliio.WriteFile(chromeOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, res.Spans)
		}); err != nil {
			return wall, err
		}
	}
	return wall, nil
}
