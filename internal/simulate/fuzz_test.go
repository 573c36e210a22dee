package simulate

import (
	"errors"
	"testing"
)

// FuzzRunNoPanic is the boundary's no-crash guarantee: for any Params in
// the mutated space, any System and any Operator, Run either returns a
// result or a typed error — never a panic, and never an internal-invariant
// failure on an input that Validate accepted. The seed corpus covers each
// formerly-crashing reproducer from the issue (negative STuples, join with
// RTuples=0, GroupSize=0, VaultCapBytes=0), a silently-accepted non-pow2
// KeySpace, and the Zipf exponents s ≤ 1 that panicked workload generation
// before Zipf grew an error contract. The mutated space also spans the
// skew-aware execution path (SkewAware × ZipfS) and both host loops
// (bulk and the NoBulk reference), so the detector, provisioning,
// splitting and stealing layers all sit under the no-crash guarantee.
//
// The harness folds raw fuzz values into bounded magnitudes — preserving
// sign, zero and non-pow2 structure so every rejection path stays
// reachable — because the guarantee excludes host-resource exhaustion:
// Validate's job is typed rejection, not making a others-of-terabytes run
// affordable.
func FuzzRunNoPanic(f *testing.F) {
	// One seed per formerly-crashing probe, on the system/operator that
	// crashed, plus healthy baselines for every system so the fuzzer
	// starts from accepted inputs too.
	type seed struct {
		sys, op, cubes, vaultsPer, sTup, rTup, group int
		keySpace                                     uint64
		vaultCap                                     int64
		cpuBuckets, par                              int
		seed                                         int64
		noBulk, skewAware                            bool
		zipfS                                        float64
	}
	seeds := []seed{
		{int(Mondrian), int(OpScan), 1, 4, -5, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, 0},         // -s-tuples -5
		{int(Mondrian), int(OpJoin), 1, 4, 1 << 11, 0, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, 0},          // join -r-tuples 0
		{int(Mondrian), int(OpGroupBy), 1, 4, 1 << 11, 1 << 10, 0, 1 << 20, 16 << 20, 0, 1, 42, false, false, 0}, // GroupSize=0
		{int(Mondrian), int(OpScan), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 0, 0, 1, 42, false, false, 0},           // VaultCapBytes=0
		{int(NMP), int(OpSort), 1, 4, 1 << 11, 1 << 10, 4, 3 << 10, 16 << 20, 0, 1, 42, false, false, 0},         // non-pow2 KeySpace
		{int(CPU), int(OpJoin), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 1 << 8, 1, 42, false, false, 0},
		{int(NMPPerm), int(OpGroupBy), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 2, 7, true, false, 0},
		{int(NMPRand), int(OpScan), 2, 4, 1 << 10, 1 << 9, 4, 1 << 18, 8 << 20, 0, 0, 3, false, false, 0},
		{int(NMPSeq), int(OpSort), 1, 1, 1 << 10, 1 << 9, 4, 1 << 18, 8 << 20, 0, 1, 9, false, false, 0},
		{int(MondrianNoPerm), int(OpJoin), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 3, 11, false, false, 0},
		// The formerly-panicking Zipf exponents (s ≤ 1 crashed workload
		// generation before validation rejected them) and live skew shapes.
		{int(Mondrian), int(OpSort), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, false, 1.0},
		{int(Mondrian), int(OpGroupBy), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, true, 0.5},
		{int(Mondrian), int(OpGroupBy), 1, 4, 1 << 12, 1 << 10, 4, 1 << 20, 16 << 20, 0, 1, 42, false, true, 2.0},
		{int(CPU), int(OpJoin), 1, 4, 1 << 12, 1 << 10, 4, 1 << 20, 16 << 20, 1 << 8, 2, 42, false, true, 1.5},
		{int(NMPSeq), int(OpSort), 1, 4, 1 << 11, 1 << 10, 4, 1 << 20, 16 << 20, 0, 4, 9, true, true, 1.1},
	}
	for _, s := range seeds {
		f.Add(s.sys, s.op, s.cubes, s.vaultsPer, s.sTup, s.rTup, s.group,
			s.keySpace, s.vaultCap, s.cpuBuckets, s.par, s.seed, s.noBulk,
			s.skewAware, s.zipfS)
	}

	f.Fuzz(func(t *testing.T, sysRaw, opRaw, cubes, vaultsPer, sTup, rTup, group int,
		keySpace uint64, vaultCap int64, cpuBuckets, par int, seed int64, noBulk bool,
		skewAware bool, zipfS float64) {
		p := TestParams()
		// Bound magnitudes so accepted inputs stay affordable; Go's %
		// keeps the sign, so negative and zero garbage still reaches the
		// rejection paths, and keySpace keeps its non-pow2 structure.
		p.Cubes = cubes % 4
		p.VaultsPer = vaultsPer % 10
		p.CPUCores = 2
		p.STuples = sTup % (1 << 12)
		p.RTuples = rTup % (1 << 11)
		p.GroupSize = group % 64
		p.KeySpace = keySpace % (1 << 26)
		p.VaultCapBytes = vaultCap % (1 << 25)
		p.CPUBuckets = cpuBuckets % (1 << 12)
		p.Parallelism = par % 8
		p.Seed = seed
		p.NoBulk = noBulk
		p.SkewAware = skewAware
		// ZipfS passes through raw: NaN/Inf/s ≤ 1 must reach the typed
		// rejection, and any accepted s > 1 is affordable at the bounded
		// tuple counts. Huge exponents just degenerate to one hot key.
		p.ZipfS = zipfS
		// Selectors range over [-1, count]: every valid value plus one
		// invalid probe on each side.
		sys := System(mod(sysRaw, int(numSystems)+2) - 1)
		op := Operator(mod(opRaw, int(numOperators)+2) - 1)

		validated := validateSystemOperator(sys, op) == nil && p.Validate() == nil
		res, err := Run(sys, op, p)
		if err != nil {
			var ie *InternalError
			if errors.As(err, &ie) {
				t.Fatalf("internal invariant tripped (validated=%v) on %v/%v %+v: %v\n%s",
					validated, sys, op, p, ie, ie.StackTrace())
			}
			if validated && errors.As(err, new(*ParamError)) {
				t.Fatalf("Validate accepted %+v but Run rejected it: %v", p, err)
			}
			return // typed rejection or a clean runtime error (e.g. overflow)
		}
		if !validated {
			t.Fatalf("Run accepted input that Validate rejects: %v/%v %+v", sys, op, p)
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
	})
}

// mod is the non-negative remainder.
func mod(v, m int) int { return (v%m + m) % m }
