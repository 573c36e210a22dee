// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§7), plus ablation benches for the design choices called out
// in DESIGN.md. Each benchmark regenerates its artifact and reports the
// headline quantities as custom metrics (suffix ...x = speedup factor over
// the experiment's baseline). The companion tool cmd/mondrian-bench prints
// the full tables; EXPERIMENTS.md records paper-vs-measured values.
//
//	go test -bench=. -benchmem
package mondrian

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/serve"
	"github.com/ecocloud-go/mondrian/internal/simulate"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// benchParams is the evaluation configuration used by the benchmark
// harness: the paper's full system shape with a dataset large enough for
// the working-set regimes of §7 (see DESIGN.md §5 on scaling).
func benchParams() simulate.Params {
	p := simulate.DefaultParams()
	p.STuples = 1 << 17
	p.RTuples = 1 << 16
	return p
}

// benchOp measures the host wall-clock of one operator simulation per
// system in two modes: the run-based bulk fast path ("bulk", the
// default) and the per-tuple reference loops ("reference"). Simulated
// results are byte-identical across both (TestBulkDifferential pins
// that); only host time differs, so the mode ratio is the fast path's
// speedup. Workload generation, engine construction, placement, and
// output verification run outside the timer — the benchmark isolates the
// simulation loop itself, which is what the fast path accelerates.
func benchOp(b *testing.B, op simulate.Operator) {
	systems := []simulate.System{
		simulate.CPU, simulate.NMP, simulate.NMPSeq, simulate.Mondrian,
	}
	for _, mode := range []struct {
		name   string
		noBulk bool
	}{{"bulk", false}, {"reference", true}} {
		for _, s := range systems {
			b.Run(mode.name+"/"+s.String(), func(b *testing.B) {
				p := benchParams()
				p.NoBulk = mode.noBulk
				benchOperatorOnly(b, s, op, p)
			})
		}
	}
}

// benchOperatorOnly times just the operator call, mirroring
// simulate.Run's per-operator setup but keeping it off the clock.
func benchOperatorOnly(b *testing.B, s simulate.System, op simulate.Operator, p simulate.Params) {
	b.Helper()
	b.ReportAllocs()
	opCfg := p.OperatorConfig(s)
	// Workloads are deterministic in the seed; generate once.
	var rels []*tuple.Relation
	switch op {
	case OpScanB:
		rels = []*tuple.Relation{workload.Uniform("scan-in", workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace})}
	case OpSortB:
		rels = []*tuple.Relation{workload.Uniform("sort-in", workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace})}
	case OpGroupByB:
		rel, err := workload.GroupBy(workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}, p.GroupSize)
		if err != nil {
			b.Fatal(err)
		}
		rels = []*tuple.Relation{rel}
	case OpJoinB:
		rRel, sRel, err := workload.FKPair(workload.Config{Seed: p.Seed, Tuples: p.STuples}, p.RTuples)
		if err != nil {
			b.Fatal(err)
		}
		rels = []*tuple.Relation{rRel, sRel}
	}
	var needle tuple.Key
	if op == OpScanB {
		needle, _ = workload.ScanTarget(rels[0], p.Seed+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := engine.New(p.EngineConfig(s))
		if err != nil {
			b.Fatal(err)
		}
		regions := make([][]*engine.Region, len(rels))
		for j, rel := range rels {
			if regions[j], err = placeAll(e, rel); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		switch op {
		case OpScanB:
			_, err = operators.Scan(e, opCfg, regions[0], needle)
		case OpSortB:
			_, err = operators.Sort(e, opCfg, regions[0])
		case OpGroupByB:
			_, err = operators.GroupBy(e, opCfg, regions[0])
		case OpJoinB:
			_, err = operators.Join(e, opCfg, regions[0], regions[1])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Local aliases keep the benchOperatorOnly switch readable.
const (
	OpScanB    = simulate.OpScan
	OpSortB    = simulate.OpSort
	OpGroupByB = simulate.OpGroupBy
	OpJoinB    = simulate.OpJoin
)

// BenchmarkOpScan times the Scan operator, bulk fast path vs per-tuple
// reference.
func BenchmarkOpScan(b *testing.B) { benchOp(b, simulate.OpScan) }

// BenchmarkOpSort times the Sort operator (partition + local sort), bulk
// fast path vs per-tuple reference.
func BenchmarkOpSort(b *testing.B) { benchOp(b, simulate.OpSort) }

// BenchmarkOpGroupBy times the GroupBy operator, bulk fast path vs
// per-tuple reference.
func BenchmarkOpGroupBy(b *testing.B) { benchOp(b, simulate.OpGroupBy) }

// BenchmarkOpJoin times the Join operator, bulk fast path vs per-tuple
// reference.
func BenchmarkOpJoin(b *testing.B) { benchOp(b, simulate.OpJoin) }

// BenchmarkTable5Partition regenerates Table 5: partition-phase speedup of
// the NMP systems over the CPU for the Join operator.
func BenchmarkTable5Partition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		su := simulate.NewSuite(benchParams())
		rows, err := su.Table5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SpeedupVsCPU, r.System.String()+"-x")
		}
	}
}

// BenchmarkFig6Probe regenerates Figure 6: probe-phase speedups vs CPU.
func BenchmarkFig6Probe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		su := simulate.NewSuite(benchParams())
		series, err := su.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			b.ReportMetric(s.Speedups[simulate.OpJoin], s.System.String()+"-join-x")
			b.ReportMetric(s.Speedups[simulate.OpScan], s.System.String()+"-scan-x")
		}
	}
}

// BenchmarkFig7Overall regenerates Figure 7: overall speedups vs CPU.
func BenchmarkFig7Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		su := simulate.NewSuite(benchParams())
		series, err := su.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		var peak float64
		for _, s := range series {
			for _, v := range s.Speedups {
				if s.System == simulate.Mondrian && v > peak {
					peak = v
				}
			}
		}
		b.ReportMetric(peak, "mondrian-peak-x") // paper: up to 49×
	}
}

// BenchmarkFig8Energy regenerates Figure 8: energy breakdowns.
func BenchmarkFig8Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		su := simulate.NewSuite(benchParams())
		entries, err := su.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			if e.Operator == simulate.OpJoin {
				f := e.Breakdown.Fractions()
				b.ReportMetric(f[2]*100, e.System.String()+"-cores-pct")
			}
		}
	}
}

// BenchmarkFig9Efficiency regenerates Figure 9: performance-per-watt
// improvement vs CPU.
func BenchmarkFig9Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		su := simulate.NewSuite(benchParams())
		series, err := su.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		var peak float64
		for _, s := range series {
			for _, v := range s.Speedups {
				if s.System == simulate.Mondrian && v > peak {
					peak = v
				}
			}
		}
		b.ReportMetric(peak, "mondrian-peak-x") // paper: up to 28×
	}
}

// BenchmarkTable1Mapping exercises the Table 1 lowering: every Spark-style
// transformation class runs through its basic operator on Mondrian.
func BenchmarkTable1Mapping(b *testing.B) {
	p := benchParams()
	p.STuples = 1 << 15
	for i := 0; i < b.N; i++ {
		for _, op := range simulate.Operators() {
			r, err := simulate.Run(simulate.Mondrian, op, p)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Verified {
				b.Fatalf("%v not verified", op)
			}
		}
	}
}

// --- ablation benches (DESIGN.md §6) ---------------------------------------

// BenchmarkAblationPermutability isolates the permutable-write feature at
// fixed core type: NMP vs NMP-perm partitioning, reporting the
// row-activation and runtime ratios (the mechanism behind Table 5).
func BenchmarkAblationPermutability(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		off, err := simulate.Run(simulate.NMP, simulate.OpJoin, p)
		if err != nil {
			b.Fatal(err)
		}
		on, err := simulate.Run(simulate.NMPPerm, simulate.OpJoin, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(off.DRAM.Activations)/float64(on.DRAM.Activations), "activation-ratio")
		b.ReportMetric(off.PartitionNs/on.PartitionNs, "partition-x")
	}
}

// BenchmarkAblationSIMDWidth sweeps the Mondrian SIMD datapath width
// (§5.2 argues 1024 bits suffices to sort at full bandwidth).
func BenchmarkAblationSIMDWidth(b *testing.B) {
	for _, bits := range []int{128, 256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			p := benchParams()
			for i := 0; i < b.N; i++ {
				cfg := p.EngineConfig(simulate.Mondrian)
				cfg.Core.SIMDBits = bits
				e, err := engine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rel := workload.Uniform("in", workload.Config{Seed: 1, Tuples: p.STuples, KeySpace: p.KeySpace})
				inputs, err := placeAll(e, rel)
				if err != nil {
					b.Fatal(err)
				}
				opCfg := p.OperatorConfig(simulate.Mondrian)
				// Lane count scales with width; the cost model's
				// SIMD divisors follow the lane count. The merge
				// network processes `lanes` tuples per operation, so
				// per-tuple merge work is 64/lanes instructions (8 at
				// the paper's 1024-bit/8-lane design point).
				lanes := float64(cfg.Core.SIMDLanes(tuple.Size))
				opCfg.Costs.SIMDScanFactor = lanes
				opCfg.Costs.SIMDDistFactor = lanes / 2
				opCfg.Costs.SIMDMergeInsts = 64 / lanes
				opCfg.Costs.BitonicInsts = 24 / lanes
				r, err := operators.Sort(e, opCfg, inputs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Ns()/1e3, "sort-us")
			}
		})
	}
}

// BenchmarkAblationMergeFanIn sweeps the merge width (the eight stream
// buffers enable fan-in 8; scalar cores manage 2).
func BenchmarkAblationMergeFanIn(b *testing.B) {
	for _, fan := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("fanin=%d", fan), func(b *testing.B) {
			p := benchParams()
			for i := 0; i < b.N; i++ {
				cfg := p.OperatorConfig(simulate.Mondrian)
				cfg.Costs.MergeFanIn = fan
				e, err := engine.New(p.EngineConfig(simulate.Mondrian))
				if err != nil {
					b.Fatal(err)
				}
				rel := workload.Uniform("in", workload.Config{Seed: 1, Tuples: p.STuples, KeySpace: p.KeySpace})
				inputs, err := placeAll(e, rel)
				if err != nil {
					b.Fatal(err)
				}
				r, err := operators.Sort(e, cfg, inputs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.ProbeNs/1e3, "probe-us")
			}
		})
	}
}

// BenchmarkAblationRowBuffer sweeps the DRAM row-buffer size (§3.1: the
// activation-energy gap grows with row size — HMC 256 B is conservative
// next to HBM's 2 KB and Wide I/O 2's 4 KB).
func BenchmarkAblationRowBuffer(b *testing.B) {
	for _, rowBytes := range []int{256, 512, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("row=%dB", rowBytes), func(b *testing.B) {
			p := benchParams()
			for i := 0; i < b.N; i++ {
				act := activationsWithRow(b, p, simulate.NMP, rowBytes)
				actPerm := activationsWithRow(b, p, simulate.NMPPerm, rowBytes)
				b.ReportMetric(float64(act)/float64(actPerm), "activation-ratio")
			}
		})
	}
}

func activationsWithRow(b *testing.B, p simulate.Params, sys simulate.System, rowBytes int) uint64 {
	b.Helper()
	cfg := p.EngineConfig(sys)
	cfg.Geometry.RowBytes = rowBytes
	e, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rel := workload.Uniform("in", workload.Config{Seed: 1, Tuples: p.STuples, KeySpace: p.KeySpace})
	inputs, err := placeAll(e, rel)
	if err != nil {
		b.Fatal(err)
	}
	opCfg := p.OperatorConfig(sys)
	if _, err := operators.PartitionPhase(e, opCfg, inputs, operators.Partitioner{Buckets: e.NumVaults()}); err != nil {
		b.Fatal(err)
	}
	return e.DRAMStats().Activations
}

// BenchmarkAblationObjectSize sweeps the permutability granularity (§5.3:
// the 256 B object buffer bounds object size). Under the byte-level link
// model distribution time is insensitive to object size (the payload
// bytes are equal); what the object buffer buys is message count — the
// njpt (network messages per tuple) metric — which per-packet overheads
// in a real SerDes protocol would translate into bandwidth.
func BenchmarkAblationObjectSize(b *testing.B) {
	for _, objBytes := range []int{16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("obj=%dB", objBytes), func(b *testing.B) {
			p := benchParams()
			for i := 0; i < b.N; i++ {
				cfg := p.EngineConfig(simulate.Mondrian)
				cfg.ObjectSize = objBytes
				e, err := engine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rel := workload.Uniform("in", workload.Config{Seed: 1, Tuples: p.STuples, KeySpace: p.KeySpace})
				inputs, err := placeAll(e, rel)
				if err != nil {
					b.Fatal(err)
				}
				pr, err := operators.PartitionPhase(e, p.OperatorConfig(simulate.Mondrian), inputs,
					operators.Partitioner{Buckets: e.NumVaults()})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pr.DistributeNs/1e3, "distribute-us")
				var flushes uint64
				for _, u := range e.Units() {
					flushes += u.ObjBuf.Flushes
				}
				b.ReportMetric(float64(flushes)/float64(p.STuples), "msgs-per-tuple")
			}
		})
	}
}

// BenchmarkAblationInterleaving measures how the row-hit probability of a
// conventional shuffle decays as more sources interleave at a destination
// (§4.1.2: "the probability of an access finding an open row quickly
// drops with the system size").
func BenchmarkAblationInterleaving(b *testing.B) {
	for _, cubes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cubes=%d", cubes), func(b *testing.B) {
			p := benchParams()
			p.Cubes = cubes
			p.STuples = 1 << 16
			for i := 0; i < b.N; i++ {
				cfg := p.EngineConfig(simulate.NMP)
				e, err := engine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rel := workload.Uniform("in", workload.Config{Seed: 1, Tuples: p.STuples, KeySpace: p.KeySpace})
				inputs, err := placeAll(e, rel)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := operators.PartitionPhase(e, p.OperatorConfig(simulate.NMP), inputs,
					operators.Partitioner{Buckets: e.NumVaults()}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(e.DRAMStats().RowHitRate()*100, "row-hit-pct")
			}
		})
	}
}

// placeAll spreads a relation evenly over the engine's vaults.
func placeAll(e *engine.Engine, rel *tuple.Relation) ([]*engine.Region, error) {
	parts := rel.SplitEven(e.NumVaults())
	regions := make([]*engine.Region, len(parts))
	for v, p := range parts {
		r, err := e.Place(v, p.Tuples)
		if err != nil {
			return nil, err
		}
		regions[v] = r
	}
	return regions, nil
}

// BenchmarkAblationSortAlgorithm compares the probe-phase sort algorithms
// on the Mondrian unit: the stream-buffer mergesort the paper selects vs
// an LSD radix sort (sequential reads, 256-way scatter writes). The
// merge's ≤8 sequential input streams match the eight stream buffers; the
// radix scatter does not, and its row locality suffers accordingly.
func BenchmarkAblationSortAlgorithm(b *testing.B) {
	p := benchParams()
	rel := workload.Uniform("in", workload.Config{Seed: 1, Tuples: p.STuples, KeySpace: p.KeySpace})
	for _, alg := range []string{"mergesort", "radixsort"} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := engine.New(p.EngineConfig(simulate.Mondrian))
				if err != nil {
					b.Fatal(err)
				}
				inputs, err := placeAll(e, rel)
				if err != nil {
					b.Fatal(err)
				}
				cm := operators.MondrianCosts()
				t0 := e.TotalNs()
				actsBefore := e.DRAMStats().Activations
				if alg == "mergesort" {
					if _, err := operators.SortBucketsForBench(e, cm, inputs); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := operators.RadixSortBuckets(e, cm, inputs, p.KeySpace); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric((e.TotalNs()-t0)/1e3, "sort-us")
				b.ReportMetric(float64(e.DRAMStats().Activations-actsBefore), "activations")
			}
		})
	}
}

// BenchmarkEngineParallel measures host wall-clock scaling of the
// per-vault worker pool on the Join operator (the heaviest experiment:
// two partition phases plus a probe phase). Simulated results are
// bit-identical at every setting — see TestGoldenDeterminism — so this
// benchmark isolates the host-side cost/benefit of fanning vault work out
// to goroutines. Speedup is bounded by the host's core count
// (GOMAXPROCS): on a single-core host all settings time-share one CPU and
// the curve is flat. EXPERIMENTS.md records the measured curve.
func BenchmarkEngineParallel(b *testing.B) {
	settings := []int{1, 2, 4}
	if gmp := runtime.GOMAXPROCS(0); gmp != 1 && gmp != 2 && gmp != 4 {
		settings = append(settings, gmp)
	}
	for _, par := range settings {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			p := benchParams()
			p.Parallelism = par
			for i := 0; i < b.N; i++ {
				r, err := simulate.Run(simulate.Mondrian, simulate.OpJoin, p)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Verified {
					b.Fatal("join not verified")
				}
			}
		})
	}
}

// BenchmarkObsOverhead prices the observability layer on the heaviest
// experiment (Mondrian Join): "disabled" is the default nil-registry
// configuration — its entire cost is one nil-check at each phase
// boundary — and "enabled" collects every counter, span and the manifest.
// cmd/benchguard holds the disabled number to within 5% of the recorded
// BENCH_BASELINE.json, so instrumentation can never tax users who did
// not ask for it. The reduced test configuration keeps CI's 2-iteration
// guard run fast.
func BenchmarkObsOverhead(b *testing.B) {
	p := simulate.TestParams()
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := simulate.Run(simulate.Mondrian, simulate.OpJoin, p)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Verified {
				b.Fatal("join not verified")
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := p
			p.Obs = obs.NewRegistry()
			r, err := simulate.Run(simulate.Mondrian, simulate.OpJoin, p)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Verified {
				b.Fatal("join not verified")
			}
			if m := simulate.BuildManifest(r, p, true); m.Metrics.Counters["accesses_total"] == 0 {
				b.Fatal("manifest empty")
			}
		}
	})
}

// BenchmarkObsWindowOverhead prices one observation on the serving
// tier's live-metrics path: recording a latency sample into a rolling
// window (bucket search + slot update) versus bumping a plain registry
// counter, plus the SLO tracker's classify-and-count. The scheduler does
// all three under its mutex on every completed request, so the per-op
// cost bounds the live-observability tax on serving throughput.
// cmd/benchguard holds the window number to within 10% of the recorded
// BENCH_BASELINE.json. Each iteration records a 1000-sample batch so the
// per-op time sits at microsecond scale, where the guard's 10% bound is
// meaningful; divide ns/op by obsWindowBatch for the per-record cost.
func BenchmarkObsWindowOverhead(b *testing.B) {
	const obsWindowBatch = 1000
	bounds := []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
	b.Run("window", func(b *testing.B) {
		w := obs.NewWindow(12, bounds)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < obsWindowBatch; j++ {
				w.Record(float64(j) * 1e6)
			}
		}
		if w.Count() == 0 {
			b.Fatal("window empty")
		}
	})
	b.Run("counter", func(b *testing.B) {
		c := obs.NewRegistry().Counter("runs")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < obsWindowBatch; j++ {
				c.Inc()
			}
		}
	})
	b.Run("slo", func(b *testing.B) {
		tr := obs.NewSLOTracker(12, obs.SLO{TargetNs: 5e7, Objective: 0.99})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < obsWindowBatch; j++ {
				tr.Record(float64(j) * 1e6)
			}
		}
	})
}

// BenchmarkPlanJoinAggSort times the compiled three-stage query
//
//	SORT( GROUPBY( R ⋈ S ) )
//
// end to end, fused versus staged. In the fused mode the plan compiler
// notices the join already leaves its output hash-partitioned on the key
// and elides the group-by's re-shuffle; the staged mode re-buckets at
// every stage boundary (the pre-compiler pipeline behavior). The
// fused/staged ratio is therefore the compiler's whole-query win on real
// host time, the same saving TestPlanFusionSavings pins on simulated
// exchange bytes. Runs at the golden-fixture scale so the 5-iteration
// benchguard pass stays fast; cmd/benchguard holds the numbers to within
// 10% of the recorded BENCH_BASELINE.json.
func BenchmarkPlanJoinAggSort(b *testing.B) {
	for _, mode := range []struct {
		name   string
		staged bool
	}{{"fused", false}, {"staged", true}} {
		for _, s := range []simulate.System{simulate.NMP, simulate.Mondrian} {
			b.Run(mode.name+"/"+s.String(), func(b *testing.B) {
				b.ReportAllocs()
				p := simulate.TestParams()
				p.STuples = 1 << 13
				p.RTuples = 1 << 12
				p.KeySpace = 1 << 16
				p.CPUBuckets = 1 << 8
				p.NoFusion = mode.staged
				for i := 0; i < b.N; i++ {
					r, err := simulate.RunPlan(s, simulate.PlanJoinAggSort, p)
					if err != nil {
						b.Fatal(err)
					}
					if !r.Verified {
						b.Fatal("plan not verified")
					}
				}
			})
		}
	}
}

// BenchmarkAblationSchedulerWindow quantifies §4.1.2's claim that
// conventional memory-controller reordering cannot recover the shuffle's
// row locality: an FR-FCFS scheduling window of increasing depth services
// the interleaved write stream of a 64-source shuffle. Even a 64-entry
// window barely moves the row-hit rate — "the distance of accesses to
// different locations within a row is typically too long for this
// scheduling window" — while permutability (the last sub-bench) gets it
// outright.
func BenchmarkAblationSchedulerWindow(b *testing.B) {
	const sources, perSource = 64, 512
	// Build the interleaved arrival stream once: `sources` sequential
	// write runs, round-robin interleaved (Fig. 2).
	stream := make([]dram.Request, 0, sources*perSource)
	for i := 0; i < perSource; i++ {
		for s := 0; s < sources; s++ {
			addr := int64(s)*perSource*16 + int64(i)*16
			stream = append(stream, dram.Request{Addr: addr, Size: 16, Write: true})
		}
	}
	geom := dram.HMCGeometry()
	geom.CapacityBytes = 16 << 20
	for _, window := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("frfcfs-window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := dram.NewDevice(geom, dram.HMCTiming())
				w := dram.NewWindow(dev, window)
				for _, r := range stream {
					w.Push(r)
				}
				w.Flush()
				b.ReportMetric(dev.Stats().RowHitRate()*100, "row-hit-pct")
			}
		})
	}
	b.Run("permutable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dev := dram.NewDevice(geom, dram.HMCTiming())
			// The vault controller appends arrivals sequentially.
			for j := range stream {
				dev.Access(int64(j)*16, 16, true)
			}
			b.ReportMetric(dev.Stats().RowHitRate()*100, "row-hit-pct")
		}
	})
}

// servingParams is the engine-as-a-service regime: the paper's full
// system shapes with many small queries, where engine construction —
// not per-query work — dominates a rebuild-per-run lifecycle (DESIGN.md
// §16).
func servingParams() simulate.Params {
	p := simulate.DefaultParams()
	p.STuples = 1 << 10
	p.RTuples = 1 << 9
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

// BenchmarkPooledRun measures one scan query under the two engine
// lifecycles the serving tier can use: drawing a reset engine from the
// shared pool (the default) versus constructing a fresh engine per run
// (NoPool). The gap is the amortized-construction win that BENCH_PR9
// records end to end; TestResetEquivalence pins that the simulated
// numbers are byte-identical either way.
func BenchmarkPooledRun(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noPool bool
	}{{"pooled", false}, {"fresh", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p := servingParams()
			p.NoPool = mode.noPool
			// Warm the pool (and allocator) outside the timer.
			if _, err := simulate.Run(simulate.CPU, simulate.OpScan, p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := simulate.Run(simulate.CPU, simulate.OpScan, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeQPS pushes a multi-tenant batch of scan queries through
// the serve scheduler — weighted-fair queues, admission control, pooled
// engines — and reports sustained queries per second. One iteration is
// one full batch: 8 tenants round-robining over every system shape.
func BenchmarkServeQPS(b *testing.B) {
	const requests, tenants = 64, 8
	p := servingParams()
	systems := simulate.Systems()
	b.ReportAllocs()
	b.ResetTimer()
	var qps float64
	for i := 0; i < b.N; i++ {
		s := serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: requests})
		start := time.Now()
		tickets := make([]*serve.Ticket, requests)
		for j := range tickets {
			tk, err := s.Submit(fmt.Sprintf("tenant-%d", j%tenants), serve.Request{
				System:   systems[j%len(systems)],
				Operator: simulate.OpScan,
				Params:   p,
			})
			if err != nil {
				b.Fatal(err)
			}
			tickets[j] = tk
		}
		for _, tk := range tickets {
			if r := tk.Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		qps = float64(requests) / time.Since(start).Seconds()
		s.Close()
	}
	b.ReportMetric(qps, "qps")
}
