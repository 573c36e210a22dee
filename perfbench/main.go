// Command perfbench is the repository's benchmark: it measures the host
// time it costs to produce the paper's simulated results (the default
// mondrian-bench suite) and to serve requests through the multi-tenant
// scheduler, checks every output, and prints the metrics as one JSON
// object on the last line of standard output. See README.md.
//
//	perfbench --workload paper-suite|serve-scan-hot|serve-mixed-cold
//	          --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every measured pass runs in a child process of its own, so peak RSS and
// set-up time are those of a process that ran only that workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

// setupSamples is how many fresh processes each set up the workload, for
// the median reported as setup_s.
const setupSamples = 7

// childSlack is how far past --seconds the child processes may run in
// total before they are killed, so a hung program still ends the run:
// at --seconds 30 the whole run stays inside 180 s.
const childSlack = 130 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	role     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloads))
	flag.Int64Var(&o.seed, "seed", digestSeed, "seed every input is derived from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: print per-layer metrics and write a Chrome trace")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for trace files")
	flag.StringVar(&o.role, "role", "", "internal: setup|run in a child process")
	record := flag.String("record-digests", "", "run the suite at the digest seed, write its reference digests to `file` and exit")
	flag.Parse()

	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloads, o.workload) || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fatal(fmt.Errorf("usage: --workload %v --seed N --seconds S>=1 --trace 0|1", workloads))
	}
	var err error
	if o.role != "" {
		err = child(o)
	} else {
		err = parent(o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// child runs one role in this process and writes its runStats as JSON.
func child(o options) error {
	var st runStats
	switch {
	case o.role == "setup" && o.workload == wlSuite:
		_, d, err := suiteSetup(o.seed)
		if err != nil {
			return err
		}
		st.SetupNs = d.Nanoseconds()
	case o.role == "setup":
		sched, _, d, err := serveSetup(o.workload, o.seed)
		if err != nil {
			return err
		}
		sched.Close()
		st.SetupNs = d.Nanoseconds()
	case o.role == "run" && o.workload == wlSuite:
		if err := runSuite(o, &st); err != nil {
			return err
		}
	case o.role == "run":
		if err := runServe(o, &st); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	return json.NewEncoder(os.Stdout).Encode(st)
}

func poolMetrics(st *runStats, before, after engine.PoolStats) {
	hits := float64(after.Hits - before.Hits)
	acquires := hits + float64(after.Misses-before.Misses)
	st.Layers["engine.pool_hits"] = hits
	st.Layers["engine.pool_acquires"] = acquires
	if acquires > 0 {
		st.Layers["engine.pool_hit_ratio"] = hits / acquires
	}
}

func runSuite(o options, st *runStats) error {
	su, d, err := suiteSetup(o.seed)
	if err != nil {
		return err
	}
	st.SetupNs = d.Nanoseconds()
	st.Layers = map[string]float64{}
	before, mark := simulate.PoolStats(), markHost()
	results, err := suitePass(su, o.seed, st)
	if err != nil {
		return err
	}
	st.Host = mark.since()
	poolMetrics(st, before, simulate.PoolStats())
	if o.trace == 0 {
		return nil
	}
	cells := suiteCells(o.seed)
	refs := make([]outcome, len(cells))
	for i, c := range cells {
		if r := results[cellKey(c)]; r != nil {
			refs[i] = resultOutcome(r)
		}
	}
	return tracePass(traceName(o), cells, nil, refs, time.Duration(st.WindowNs), o.out, st)
}

func runServe(o options, st *runStats) error {
	sched, refs, d, err := serveSetup(o.workload, o.seed)
	if err != nil {
		return err
	}
	st.SetupNs = d.Nanoseconds()
	tf := newTraffic(o.workload, o.seed)
	before, mark := simulate.PoolStats(), markHost()
	serveLoop(sched, tf, refs, runtime.NumCPU(), time.Duration(o.seconds)*time.Second, st)
	st.Host = mark.since()
	poolMetrics(st, before, simulate.PoolStats())
	sched.Close()
	if o.trace == 0 {
		return nil
	}
	reqs := tracedRequests(tf)
	direct, took := directPass(reqs, st)
	return tracePass(traceName(o), reqs, warmRequests(o.workload, o.seed), direct, took, o.out, st)
}

func traceName(o options) string { return o.workload + "-seed" + strconv.FormatInt(o.seed, 10) }

// spawn runs this binary as a child in role and returns its report, with
// the child's peak RSS filled in from its rusage.
func spawn(ctx context.Context, o options, role string) (runStats, error) {
	var st runStats
	exe, err := os.Executable()
	if err != nil {
		return st, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--out", o.out, "--role", role)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// A child must not outlive a killed parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return st, fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		return st, fmt.Errorf("%s child: %w", role, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.MaxRSS = ru.Maxrss
	}
	return st, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parent(o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+childSlack)
	defer cancel()
	probeCPU, probeMem := probe()

	var setups []float64
	for i := 0; i < setupSamples-1; i++ {
		st, err := spawn(ctx, o, "setup")
		if err != nil {
			return err
		}
		setups = append(setups, float64(st.SetupNs)/1e9)
	}
	// The suite starts whole passes, each in a fresh process as a
	// mondrian-bench user runs it, until the measured time is used up.
	var runs []runStats
	start := time.Now()
	for {
		st, err := spawn(ctx, o, "run")
		if err != nil {
			return err
		}
		runs = append(runs, st)
		if o.workload != wlSuite || o.trace == 1 || time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
	}
	setups = append(setups, float64(runs[0].SetupNs)/1e9)

	res := result{Metrics: map[string]metric{}}
	var lat, walls, rss []float64
	var window int64
	completed := 0
	var errs []string
	for _, st := range runs {
		res.Attempted += st.Attempted
		res.Failed += st.Failed
		completed += st.Completed
		window += st.WindowNs
		lat = append(lat, latencies(st.Lat, st.Failed, st.WindowNs)...)
		walls = append(walls, float64(st.WindowNs)/1e9)
		rss = append(rss, float64(st.MaxRSS)/1024)
		errs = append(errs, st.Errors...)
	}
	st := runs[0]
	res.Correct = res.Failed == 0 && len(errs) == 0
	latN, p50, p99 := len(lat), quantile(lat, 0.50), quantile(lat, 0.99)
	wall := median(walls)
	if o.workload != wlSuite {
		if st.RotN == 0 {
			return errors.New("no full rotation of the traffic completed; give the run more --seconds")
		}
		latN, p50, p99 = st.LatN, st.LatP50, st.LatP99
		wall = st.RotMs / 1e3
	}

	record := map[string]any{
		"workload": o.workload, "seed": o.seed, "passes": len(runs),
		"latency_samples": latN, "setup_samples": len(setups),
		"host.probe_cpu_s": probeCPU, "host.probe_mem_s": probeMem,
		"host": st.Host, "errors": errs, "digests_matched": st.DigestsMatched,
		"engine.pool_hits": st.Layers["engine.pool_hits"], "engine.pool_acquires": st.Layers["engine.pool_acquires"],
	}
	if o.workload != wlSuite {
		record["rotations"] = st.RotN
	}
	if st.Trace != "" {
		record["trace_file"] = st.Trace
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"record": record}); err != nil {
		return err
	}

	if o.trace == 0 {
		for name, v := range map[string]float64{
			"setup_s":        median(setups),
			"wall_s":         wall,
			"throughput_rps": float64(completed) / (float64(window) / 1e9),
			"latency_p50_ms": p50,
			"latency_p99_ms": p99,
			"peak_rss_mb":    median(rss),
		} {
			res.Metrics[name] = metric{v, endToEnd[name]}
		}
	} else {
		l := st.Layers
		l["host.cpu_s"], l["host.alloc_mb"] = st.Host.CPUS, st.Host.AllocMB
		l["host.gc_cycles"], l["host.gc_pause_ms"] = st.Host.GCCycles, st.Host.GCPauseMs
		l["host.probe_cpu_s"], l["host.probe_mem_s"] = probeCPU, probeMem
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{l[m.name], m.unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
