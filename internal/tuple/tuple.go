// Package tuple defines the fundamental data representation used throughout
// the Mondrian Data Engine: fixed-size 16-byte key/value tuples and flat
// relations of such tuples.
//
// The paper (§6, "Evaluated operators") bases all experiments on 16-byte
// tuples comprising an 8-byte integer key and an 8-byte integer payload,
// standing for the key/value pairs of an in-memory column store. A []Tuple
// is exactly that memory layout: a densely packed array of 16-byte
// records, which is what the simulated memory system addresses.
package tuple

import (
	"fmt"
	"sort"
)

// Key is an 8-byte join/grouping key.
type Key uint64

// Value is an 8-byte payload carried alongside a key.
type Value uint64

// Size is the size of one Tuple in simulated memory, in bytes.
const Size = 16

// Tuple is a 16-byte key/value record, the unit of all operator processing.
type Tuple struct {
	Key Key
	Val Value
}

// String implements fmt.Stringer for debugging output.
func (t Tuple) String() string { return fmt.Sprintf("(%d,%d)", t.Key, t.Val) }

// Relation is a named, flat sequence of tuples. Relations are the inputs
// and outputs of every data operator.
type Relation struct {
	Name   string
	Tuples []Tuple
}

// NewRelation returns an empty relation with capacity for n tuples. A
// negative n is treated as zero: capacity is a sizing hint, and turning it
// into a makeslice panic would let bad caller input crash the process.
func NewRelation(name string, n int) *Relation {
	if n < 0 {
		n = 0
	}
	return &Relation{Name: name, Tuples: make([]Tuple, 0, n)}
}

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.Tuples) }

// Bytes returns the relation's footprint in simulated memory.
func (r *Relation) Bytes() int64 { return int64(len(r.Tuples)) * Size }

// Append adds tuples to the relation. Hot loops should prefer Append1 or
// AppendSlice: the variadic form materializes a slice header per call.
func (r *Relation) Append(ts ...Tuple) { r.Tuples = append(r.Tuples, ts...) }

// Append1 adds a single tuple without the variadic slice-header cost.
func (r *Relation) Append1(t Tuple) { r.Tuples = append(r.Tuples, t) }

// AppendSlice adds a batch of tuples from an existing slice.
func (r *Relation) AppendSlice(ts []Tuple) { r.Tuples = append(r.Tuples, ts...) }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Tuples: make([]Tuple, len(r.Tuples))}
	copy(c.Tuples, r.Tuples)
	return c
}

// SortByKey sorts the relation's tuples by key ascending (stable with
// respect to payloads is not required; ties keep payload order unspecified).
func (r *Relation) SortByKey() {
	SortSliceByKey(r.Tuples)
}

// IsSortedByKey reports whether tuples are in non-decreasing key order.
func (r *Relation) IsSortedByKey() bool {
	return sort.SliceIsSorted(r.Tuples, func(i, j int) bool { return r.Tuples[i].Key < r.Tuples[j].Key })
}

// SplitEven divides the relation into n contiguous chunks whose sizes differ
// by at most one tuple. It is used to distribute an input across memory
// partitions (vaults) before an operator runs.
//
// Chunks share the parent's Name: nothing on the placement path reads a
// per-chunk name, and formatting one per vault put a fmt.Sprintf (and
// its allocations) on every run's setup. Display code that wants the
// indexed form builds it on demand with ChunkName.
func (r *Relation) SplitEven(n int) []*Relation {
	if n <= 0 {
		panic("tuple: SplitEven requires n > 0")
	}
	out := make([]*Relation, n)
	total := len(r.Tuples)
	start := 0
	for i := 0; i < n; i++ {
		size := total / n
		if i < total%n {
			size++
		}
		out[i] = &Relation{
			Name:   r.Name,
			Tuples: r.Tuples[start : start+size],
		}
		start += size
	}
	return out
}

// ChunkName formats the indexed display name of chunk i of this
// relation ("name[i]"), for tracing and diagnostics that want to tell
// SplitEven chunks apart.
func (r *Relation) ChunkName(i int) string {
	return fmt.Sprintf("%s[%d]", r.Name, i)
}

// Concat concatenates the given relations into a single new relation.
func Concat(name string, parts []*Relation) *Relation {
	total := 0
	for _, p := range parts {
		total += len(p.Tuples)
	}
	out := &Relation{Name: name, Tuples: make([]Tuple, 0, total)}
	for _, p := range parts {
		out.Tuples = append(out.Tuples, p.Tuples...)
	}
	return out
}
