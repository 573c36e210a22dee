package operators

import (
	"fmt"

	"github.com/ecocloud-go/mondrian/internal/engine"
	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// JoinResult reports a Join run (R ⋈ S on key equality).
type JoinResult struct {
	// Out holds the join output: one tuple per match with the S tuple's
	// key and the XOR of the R and S payloads (a verifiable combine).
	Out     []*engine.Region
	Matches int
	// RPartition and SPartition are the two partitioning sub-phases.
	RPartition, SPartition *PartitionResult
	PartitionNs            float64
	ProbeNs                float64
}

// Ns returns the operator's total runtime.
func (r *JoinResult) Ns() float64 { return r.PartitionNs + r.ProbeNs }

// combine produces the verifiable join output payload.
func combine(r, s tuple.Tuple) tuple.Tuple {
	return tuple.Tuple{Key: s.Key, Val: r.Val ^ s.Val}
}

// Join executes R ⋈ S assuming a foreign-key relationship (every S tuple
// matches exactly one R tuple, §6). Both relations are co-partitioned on
// low-order key bits; the probe phase is a radix hash join (CPU,
// NMP-rand, after Kim et al. / Balkesen et al.) or a sort-merge join
// (NMP-seq, Mondrian).
func Join(e *engine.Engine, cfg Config, rIn, sIn []*engine.Region) (*JoinResult, error) {
	if err := checkInputs(e, rIn); err != nil {
		return nil, err
	}
	if err := checkInputs(e, sIn); err != nil {
		return nil, err
	}
	part := Partitioner{Buckets: bucketCount(e, cfg, totalLen(sIn))}

	rPart, err := PartitionPhase(e, cfg, rIn, part)
	if err != nil {
		return nil, fmt.Errorf("partitioning R: %w", err)
	}
	sPart, err := PartitionPhase(e, cfg, sIn, part)
	if err != nil {
		return nil, fmt.Errorf("partitioning S: %w", err)
	}
	res, err := JoinProbe(e, cfg, rPart.Buckets, sPart.Buckets)
	if err != nil {
		return nil, err
	}
	res.RPartition, res.SPartition = rPart, sPart
	res.PartitionNs = rPart.Ns() + sPart.Ns()
	return res, nil
}

// JoinProbe runs the join's probe phase over already co-partitioned
// buckets: rBuckets[b] and sBuckets[b] must hold exactly the keys the
// join partitioner maps to bucket b, with bucket b resident in vault b on
// the vault-partitioned architectures. Join calls it after its two
// partition phases; plan execution calls it directly when an upstream
// operator's output is already co-partitioned, eliding the re-shuffle.
func JoinProbe(e *engine.Engine, cfg Config, rBuckets, sBuckets []*engine.Region) (*JoinResult, error) {
	cm := cfg.Costs
	res := &JoinResult{}
	t1 := e.TotalNs()
	e.BeginPhase("probe")
	defer e.EndPhase()

	var err error
	if cfg.SortProbe {
		err = joinSortMergeProbe(e, cm, rBuckets, sBuckets, res)
	} else {
		err = joinHashProbe(e, cfg, rBuckets, sBuckets, res)
	}
	if err != nil {
		return nil, err
	}
	e.Barrier()
	res.ProbeNs = e.TotalNs() - t1
	return res, nil
}

// joinHashProbe implements the radix hash join probe: per probe group,
// build a hash table over the R tuples (the second hash step of Table 2),
// then probe it with every S tuple. All accesses are group-local but
// random — the working set the paper's CPU and NMP-rand probes see.
func joinHashProbe(e *engine.Engine, cfg Config, rBuckets, sBuckets []*engine.Region, res *JoinResult) error {
	cm := cfg.Costs
	groups := probeGroups(e, cfg, sBuckets)
	tables := make([]*hashTable, len(groups))
	outs := make([]*engine.Region, len(groups))
	for g, group := range groups {
		rLen, sLen := 0, 0
		for _, b := range group {
			rLen += rBuckets[b].Len()
			sLen += sBuckets[b].Len()
		}
		ht, err := newHashTable(e, rBuckets[group[0]].Vault.ID, maxInt(rLen, 1))
		if err != nil {
			return err
		}
		tables[g] = ht
		out, err := e.AllocOut(sBuckets[group[0]].Vault.ID, maxInt(sLen, 1))
		if err != nil {
			return err
		}
		outs[g] = out
	}
	res.Out = outs

	e.BeginStep(cm.HashProfile)
	if err := e.ForEachTaskWeighted(len(groups), stealGroupWeights(e, groups, rBuckets), func(g int) error {
		u := unitForGroup(e, groups, g)
		for _, b := range groups[g] {
			rb := rBuckets[b]
			for i := 0; i < rb.Len(); i++ {
				t := u.LoadTuple(rb, i)
				u.Charge(cm.HashBuildInsts)
				if err := tables[g].insert(u, t); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.EndStep()

	matches := make([]int, len(groups))
	e.BeginStep(cm.HashProfile)
	if err := e.ForEachTaskWeighted(len(groups), stealGroupWeights(e, groups, sBuckets), func(g int) error {
		u := unitForGroup(e, groups, g)
		for _, b := range groups[g] {
			sb := sBuckets[b]
			for i := 0; i < sb.Len(); i++ {
				s := u.LoadTuple(sb, i)
				u.Charge(cm.HashProbeInsts)
				if r, ok := tables[g].lookup(u, s.Key); ok {
					u.AppendLocal(outs[g], combine(r, s))
					matches[g]++
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.EndStep()
	for _, m := range matches {
		res.Matches += m
	}
	return nil
}

// joinSortMergeProbe implements the sort-merge join probe: sort both
// buckets, then join them in one final sequential pass (§6: "all data in
// the local vault is sorted and the two relations are joined doing a
// final pass").
func joinSortMergeProbe(e *engine.Engine, cm CostModel, rBuckets, sBuckets []*engine.Region, res *JoinResult) error {
	outs := make([]*engine.Region, len(sBuckets))
	for b, bucket := range sBuckets {
		r, err := e.AllocOut(bucket.Vault.ID, maxInt(bucket.Len(), 1))
		if err != nil {
			return err
		}
		outs[b] = r
	}
	res.Out = outs
	rSorted, err := sortBuckets(e, cm, rBuckets)
	if err != nil {
		return err
	}
	sSorted, err := sortBuckets(e, cm, sBuckets)
	if err != nil {
		return err
	}

	insts := cm.MergeJoinInsts
	prof := engine.StepProfile{Name: "merge-join", DepIPC: 1.0, InstPerAccess: 5}
	if isSIMD(e) {
		insts /= cm.SIMDJoinFactor
		prof.DepIPC = 2
	}
	matches := make([]int, len(rSorted))
	splits := make([]int, len(rSorted))
	skewAware := e.Config().SkewAware
	e.BeginStep(probeProfile(e, prof))
	if err := e.ForEachTaskWeighted(len(rSorted), stealWeights(e, rSorted, sSorted), func(b int) error {
		u := unitForBucket(e, b)
		readers, err := u.OpenStreams(rSorted[b], sSorted[b])
		if err != nil {
			return err
		}
		rr, sr := readers[0], readers[1]
		if u.Bulk() {
			// Bulk path: the same merge, but R catch-up stretches retire as
			// runs found by peeking ahead in the functional data. The read,
			// charge and append sequences match the reference loop exactly
			// — including the charged-but-readless final Next when R
			// exhausts mid-advance.
			rTs, sTs := rSorted[b].Tuples, sSorted[b].Tuples
			nR := len(rTs)
			cur := 0
			rok := nR > 0
			if rok {
				rr.NextRun(1)
				u.Charge(insts)
			}
			var pending []tuple.Tuple
			for si := 0; si < len(sTs); si++ {
				if !rok {
					// R exhausted: the rest of S is a pure read run.
					n := len(sTs) - si
					sr.NextRun(n)
					u.ChargeRun(insts, n)
					return nil
				}
				st := sTs[si]
				sr.NextRun(1)
				u.Charge(insts)
				if rTs[cur].Key < st.Key {
					j := cur
					for j < nR && rTs[j].Key < st.Key {
						j++
					}
					if j < nR {
						rr.NextRun(j - cur)
						u.ChargeRun(insts, j-cur)
						cur = j
					} else {
						// The advance runs off the end: nR-1-cur real
						// reads, then one charged Next that finds the
						// stream empty.
						if k := nR - 1 - cur; k > 0 {
							rr.NextRun(k)
						}
						u.ChargeRun(insts, nR-cur)
						cur = nR
						rok = false
						continue
					}
				}
				if rTs[cur].Key == st.Key {
					u.AppendLocal(outs[b], combine(rTs[cur], st))
					matches[b]++
				}
				if !skewAware {
					continue
				}
				// Skew-aware hot-run batching: the rest of an equal-key S
				// run needs no R advance, so it can retire as run-granular
				// operations. The charged access sequence is identical to
				// the per-tuple loop: NextRun/ChargeRun equal their
				// per-tuple expansions, and matched appends use the
				// mergePass flush-before-refill pattern, which reproduces
				// the exact [refill][≤granule writes] DRAM order.
				se := si + 1
				for se < len(sTs) && sTs[se].Key == st.Key {
					se++
				}
				if k := se - (si + 1); k >= splitRunMinTuples {
					switch {
					case rTs[cur].Key != st.Key:
						// Unmatched hot run: a pure read run.
						sr.NextRun(k)
						u.ChargeRun(insts, k)
						splits[b]++
						si = se - 1
					case sr.Streamed():
						// Matched hot run: every tuple joins the same R
						// tuple. Batching appends needs DRAM-free pops,
						// which only stream-buffer units provide.
						rt := rTs[cur]
						pending = pending[:0]
						flush := func() {
							if len(pending) == 0 {
								return
							}
							u.ChargeRun(insts, len(pending))
							u.AppendRunLocal(outs[b], pending)
							matches[b] += len(pending)
							pending = pending[:0]
						}
						for i := si + 1; i < se; i++ {
							if sr.NextFills() {
								flush()
							}
							sr.Next()
							pending = append(pending, combine(rt, sTs[i]))
						}
						flush()
						splits[b]++
						si = se - 1
					}
				}
			}
			return nil
		}
		// Reference per-tuple path.
		rt, rok := rr.Next()
		if rok {
			u.Charge(insts)
		}
		for {
			st, sok := sr.Next()
			if !sok {
				return nil
			}
			u.Charge(insts)
			for rok && rt.Key < st.Key {
				rt, rok = rr.Next()
				u.Charge(insts)
			}
			if rok && rt.Key == st.Key {
				u.AppendLocal(outs[b], combine(rt, st))
				matches[b]++
			}
		}
	}); err != nil {
		return err
	}
	e.EndStep()
	for _, m := range matches {
		res.Matches += m
	}
	if skewAware {
		total := 0
		for _, s := range splits {
			total += s
		}
		e.RecordSplitKeys(total)
	}
	return nil
}
