// Package simulate assembles the paper's evaluated systems and runs the
// operator experiments that regenerate every table and figure of §7.
//
// Evaluated configurations (§6 "Evaluated configurations"):
//
//	CPU             — CPU-centric baseline (radix hash algorithms)
//	NMP             — NMP baseline, conventional partitioning, hash probe
//	NMP-perm        — NMP cores + permutable partitioning, hash probe
//	NMP-rand        — NMP probe with the hash (random-access) algorithms
//	NMP-seq         — NMP probe with the sort (sequential) algorithms
//	Mondrian-noperm — Mondrian SIMD units without permutability
//	Mondrian        — the full co-design
package simulate

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/ecocloud-go/mondrian/internal/dram"
	"github.com/ecocloud-go/mondrian/internal/energy"
	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/operators"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Params fixes the experimental setup (Table 3 scaled to the simulation
// budget: speedups are ratios and the model is scale-invariant, so the
// dataset is a configurable fraction of the paper's 32 GB).
type Params struct {
	Cubes     int
	VaultsPer int
	CPUCores  int
	// VaultCapBytes sizes each vault's DRAM (the real HMC vault is
	// 512 MB; experiments allocate datasets plus scratch within it).
	VaultCapBytes int64
	// STuples is the large-relation cardinality (also the Scan/Sort/
	// Group-by input size); RTuples the small join relation.
	STuples, RTuples int
	// GroupSize is the Group-by average group size (4 in the paper).
	GroupSize int
	// KeySpace bounds keys; must be a power of two for range math.
	KeySpace uint64
	// CPUBuckets is the CPU's radix partition count. The paper's CPU
	// code hashes the keys' 16 low-order bits (2^16 partitions)
	// regardless of dataset size; 0 selects cache-targeted auto-sizing.
	CPUBuckets int
	Seed       int64
	// BarrierNs is the all-to-all notification cost (§5.4).
	BarrierNs float64
	// Energy holds the Table 4 constants.
	Energy energy.Params
	// Parallelism bounds the host worker pool executing per-vault work
	// (0 = GOMAXPROCS, 1 = serial). Results are bit-identical at every
	// setting; only wall-clock time changes. Overridable with the
	// MONDRIAN_PARALLELISM environment variable.
	Parallelism int
	// NoBulk disables the engine's run-based bulk access fast path,
	// forcing the per-tuple reference loops everywhere. Results are
	// byte-identical either way; only wall-clock time changes.
	// Overridable with the MONDRIAN_NO_BULK environment variable.
	NoBulk bool
	// SkewAware enables the skew-aware execution path: heavy-hitter
	// detection during the partition phase, exact-histogram destination
	// provisioning (replacing overflow-and-retry), hot-key splitting in
	// the Group-by/Join probes, and deterministic work stealing in the
	// engine's dispatch. On inputs where the default path succeeds,
	// report JSON is byte-identical with the flag on or off — only host
	// wall-clock time and the skew_* observability metrics differ.
	// Overridable with the MONDRIAN_SKEW_AWARE environment variable.
	SkewAware bool
	// NoPool disables engine pooling: every run constructs a fresh engine
	// with engine.New and discards it, the pre-PR-9 lifecycle. Pooling
	// (the default) acquires a reset engine from the shared pool and
	// releases it after the run; like Parallelism/NoBulk it is a
	// host-execution choice only — report JSON is byte-identical either
	// way (TestResetEquivalence asserts it). Overridable with the
	// MONDRIAN_NO_POOL environment variable.
	NoPool bool
	// ZipfS selects skewed workloads: 0 (the default) keeps the uniform
	// generators; a finite exponent > 1 draws the Scan/Sort/Group-by
	// input keys (and the Join probe relation's foreign keys) from a
	// Zipf distribution with that exponent.
	ZipfS float64
	// Overprovision scales the partition phase's destination-buffer
	// estimate (0 = the operator default of 2×). Skewed workloads need
	// more; skew-aware runs provision exactly and ignore the shortfall.
	Overprovision float64
	// NoFusion disables the query-plan compiler's re-shuffle elision:
	// every plan stage re-partitions its inputs from scratch, reproducing
	// staged one-operator-at-a-time execution. Output multisets are
	// identical either way — fusion changes simulated cost, never
	// results. Ignored by single-operator runs; plan manifests record it
	// as a "+staged" operator suffix.
	NoFusion bool
	// Obs, when non-nil, enables the observability layer: Run collects
	// every deterministic run statistic into this registry and populates
	// Result.Phases/Spans. nil (the default) costs nothing. Excluded from
	// JSON because a registry is state, not configuration.
	Obs *obs.Registry `json:"-"`
}

// DefaultParams returns the paper's system shape (4 cubes × 16 vaults,
// 16 CPU cores) with a laptop-scale dataset.
func DefaultParams() Params {
	return Params{
		Parallelism:   envParallelism(),
		NoBulk:        envNoBulk(),
		SkewAware:     envSkewAware(),
		NoPool:        envNoPool(),
		Cubes:         4,
		VaultsPer:     16,
		CPUCores:      16,
		VaultCapBytes: 64 << 20,
		STuples:       1 << 19, // 512Ki tuples = 8 MB
		RTuples:       1 << 18,
		GroupSize:     4,
		KeySpace:      1 << 24,
		Seed:          42,
		CPUBuckets:    1 << 16,
		BarrierNs:     2000,
		Energy:        energy.DefaultParams(),
	}
}

// TestParams returns a shrunken setup for fast tests.
func TestParams() Params {
	p := DefaultParams()
	p.Cubes = 2
	p.VaultsPer = 4
	p.CPUCores = 4
	p.VaultCapBytes = 32 << 20
	// Large enough that the per-vault hash tables exceed the L1 caches
	// (the regime every probe-phase comparison of §7 lives in), small
	// enough for sub-second runs.
	p.STuples = 1 << 16
	p.RTuples = 1 << 15
	p.KeySpace = 1 << 20
	p.CPUBuckets = 1 << 12
	return p
}

// envWarnOut receives one-line warnings about unusable environment-variable
// overrides. A variable (swapped by tests) rather than os.Stderr directly.
var envWarnOut io.Writer = os.Stderr

// envParallelism reads the MONDRIAN_PARALLELISM override (0 or unset =
// GOMAXPROCS, 1 = serial, N = N workers). A value that is not a
// non-negative integer is reported with a one-line warning naming the
// variable and value — never silently mapped to the default.
func envParallelism() int {
	v := os.Getenv("MONDRIAN_PARALLELISM")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		fmt.Fprintf(envWarnOut, "mondrian: ignoring MONDRIAN_PARALLELISM=%q: want a non-negative integer; using the default (GOMAXPROCS)\n", v)
		return 0
	}
	return n
}

// envNoBulk reads the MONDRIAN_NO_BULK override. Boolean spellings
// (0/1/true/false/...) parse as usual; anything else non-empty keeps the
// documented legacy meaning "set" (bulk path disabled) but is reported
// with a one-line warning naming the variable and value.
func envNoBulk() bool {
	v := os.Getenv("MONDRIAN_NO_BULK")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		fmt.Fprintf(envWarnOut, "mondrian: MONDRIAN_NO_BULK=%q is not a boolean; treating as set (bulk fast path disabled)\n", v)
		return true
	}
	return b
}

// envSkewAware reads the MONDRIAN_SKEW_AWARE override. Boolean spellings
// parse as usual; anything else non-empty means "set" (skew-aware path
// enabled) but is reported with a one-line warning naming the variable
// and value.
func envSkewAware() bool {
	v := os.Getenv("MONDRIAN_SKEW_AWARE")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		fmt.Fprintf(envWarnOut, "mondrian: MONDRIAN_SKEW_AWARE=%q is not a boolean; treating as set (skew-aware execution enabled)\n", v)
		return true
	}
	return b
}

// envNoPool reads the MONDRIAN_NO_POOL override. Boolean spellings parse
// as usual; anything else non-empty means "set" (engine pooling disabled)
// but is reported with a one-line warning naming the variable and value.
func envNoPool() bool {
	v := os.Getenv("MONDRIAN_NO_POOL")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		fmt.Fprintf(envWarnOut, "mondrian: MONDRIAN_NO_POOL=%q is not a boolean; treating as set (engine pooling disabled)\n", v)
		return true
	}
	return b
}

// geometry derives the per-vault DRAM geometry.
func (p Params) geometry() dram.Geometry {
	g := dram.HMCGeometry()
	g.CapacityBytes = p.VaultCapBytes
	return g
}

// EngineConfig builds the engine configuration for a system: the
// registered identity template (registry.go) plus this Params'
// experiment-owned fields. It panics on an unregistered System handle;
// Run validates first and returns a typed *ParamError instead.
func (p Params) EngineConfig(s System) engine.Config {
	sp, ok := SpecOf(s)
	if !ok {
		panic(fmt.Sprintf("simulate: unknown system %v", s))
	}
	cfg := sp.Engine
	cfg.Cubes = p.Cubes
	cfg.VaultsPer = p.VaultsPer
	cfg.Geometry = p.geometry()
	cfg.Timing = dram.HMCTiming()
	cfg.ObjectSize = tuple.Size
	cfg.BarrierNs = p.BarrierNs
	cfg.Parallelism = p.Parallelism
	cfg.NoBulk = p.NoBulk
	cfg.SkewAware = p.SkewAware
	cfg.Obs = p.Obs
	if sp.HostCores {
		cfg.CPUCores = p.CPUCores
	}
	return cfg
}

// OperatorConfig builds the operator configuration for a system from the
// registered spec's algorithm selectors: the CPU and NMP-rand run the
// hash algorithms, NMP-seq and the Mondrian variants the sort-based ones
// (§6).
func (p Params) OperatorConfig(s System) operators.Config {
	cfg := operators.Config{Costs: operators.DefaultCosts(), KeySpace: p.KeySpace,
		CPUBuckets: p.CPUBuckets, SkewAware: p.SkewAware,
		Overprovision: p.Overprovision}
	if sp, ok := SpecOf(s); ok {
		if sp.MondrianCosts {
			cfg.Costs = operators.MondrianCosts()
		}
		cfg.SortProbe = sp.SortProbe
	}
	return cfg
}
