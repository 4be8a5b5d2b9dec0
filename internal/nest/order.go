package nest

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/einsum"
)

// MaxOrderLoops caps the loops an OrderSearch places: its tables hold
// 2^loops entries.
const MaxOrderLoops = 20

// Cost prices one tensor's transfers once its innermost relevant loop is
// known: r indexes that loop in the searched nest and outside is the
// product of the bounds of the loops enclosing it, so the tensor moves
// outside·bound(r) tiles under the plain product rule. r = -1 (with
// outside = 1) means no loop of the nest is relevant to the tensor: its
// tile stays resident and moves once. Cost returns a primary and a
// secondary traffic; OrderSearch minimizes the pair lexicographically.
type Cost func(t, r int, outside int64) (primary, secondary int64)

// OrderSearch finds the best order of a loop nest without enumerating the
// orders. The product rule charges each tensor by its innermost relevant
// loop r and the set of loops enclosing r only — never by how the
// enclosing or enclosed loops are ordered among themselves — so the
// minimum over all k! orders of a tensor-separable cost is a dynamic
// program over the 2^k subsets S of loops placed innermost: placing loop
// r just outside S settles every tensor that r is relevant to and no loop
// of S is, at outside = the product of the bounds not in S∪{r}.
//
// The zero value is ready to use. An OrderSearch reuses its tables between
// calls and is not safe for concurrent use.
type OrderSearch struct {
	prod []int64 // prod[X]: product of the bounds of the loops in X
	best []int64 // best[S]: least primary cost of placing S innermost
	tie  []int64 // tie[S]: least secondary cost among those placements
}

// MinLex returns the lexicographic minimum, over every order of the loops
// with the given bounds, of the summed (primary, secondary) cost of the
// tensors. relevant[t] is tensor t's relevance mask over the loops: bit r
// for bounds[r], no bit at or above len(bounds). cost is called for each
// tensor at each candidate innermost relevant loop, and once with r = -1
// for a tensor with an empty mask. Loops of bound 1 are transparent to
// the product rule and should be left out: they only multiply the work
// by 2^k.
func (o *OrderSearch) MinLex(bounds []int64, relevant []uint64, cost Cost) (primary, secondary int64) {
	k := len(bounds)
	if k > MaxOrderLoops {
		panic(fmt.Sprintf("nest: order search over %d loops exceeds %d", k, MaxOrderLoops))
	}
	n := 1 << k
	if cap(o.prod) < n {
		o.prod = make([]int64, n)
		o.best = make([]int64, n)
		o.tie = make([]int64, n)
	}
	prod, best, tie := o.prod[:n], o.best[:n], o.tie[:n]
	full := n - 1

	prod[0], best[0], tie[0] = 1, 0, 0
	for x := 1; x < n; x++ {
		prod[x] = prod[x&(x-1)] * bounds[bits.TrailingZeros(uint(x))]
		best[x], tie[x] = math.MaxInt64, math.MaxInt64
	}
	if len(relevant) > einsum.MaxTensors {
		panic(fmt.Sprintf("nest: order search over %d tensors exceeds %d", len(relevant), einsum.MaxTensors))
	}
	// with[r]: the tensors loop r is relevant to, as a bitmask.
	var with [MaxOrderLoops]uint64
	for t, rel := range relevant {
		if rel == 0 {
			a, b := cost(t, -1, 1)
			primary += a
			secondary += b
		}
		for m := rel; m != 0; m &= m - 1 {
			with[bits.TrailingZeros64(m)] |= 1 << t
		}
	}
	for s := 0; s < full; s++ {
		// open: the tensors no loop placed so far is relevant to.
		var open uint64
		for t, rel := range relevant {
			if rel&uint64(s) == 0 {
				open |= 1 << t
			}
		}
		for free := full &^ s; free != 0; free &= free - 1 {
			r := bits.TrailingZeros(uint(free))
			next := s | 1<<r
			outside := prod[full^next]
			a, b := best[s], tie[s]
			for settle := open & with[r]; settle != 0; settle &= settle - 1 {
				ca, cb := cost(bits.TrailingZeros64(settle), r, outside)
				a += ca
				b += cb
			}
			if a < best[next] || (a == best[next] && b < tie[next]) {
				best[next], tie[next] = a, b
			}
		}
	}
	return primary + best[full], secondary + tie[full]
}

// LoopSet is one loop nest in the form MinLex takes: the ranks whose loop
// iterates (bound > 1), their bounds, and each tensor's relevance mask
// over those loops. Reset it, Add every rank's loop in nest order, then
// call Relevance. It reuses its slices, so a LoopSet kept per worker makes
// building the nest allocation-free.
type LoopSet struct {
	Ranks  []int    // dense rank index of each loop
	Bounds []int64  // bound of each loop
	Rel    []uint64 // Rel[t]: bit l set iff loop l is relevant to tensor t
}

// Reset empties the nest.
func (ls *LoopSet) Reset() { ls.Ranks, ls.Bounds = ls.Ranks[:0], ls.Bounds[:0] }

// Add appends rank's loop with the given bound. Bound-1 loops are
// transparent to the product rule and left out.
func (ls *LoopSet) Add(rank int, bound int64) {
	if bound > 1 {
		ls.Ranks = append(ls.Ranks, rank)
		ls.Bounds = append(ls.Bounds, bound)
	}
}

// Relevance fills Rel with each tensor's relevance mask over the loops
// added so far.
func (ls *LoopSet) Relevance(tensors []einsum.DenseTensor) {
	ls.Rel = ls.Rel[:0]
	for t := range tensors {
		var m uint64
		for l, rank := range ls.Ranks {
			if tensors[t].Relevant[rank] {
				m |= 1 << l
			}
		}
		ls.Rel = append(ls.Rel, m)
	}
}

// Iterations is the plain product rule inside a Cost: loop r's bound times
// the loops enclosing it, or 1 when no loop is relevant (r = -1).
func (ls *LoopSet) Iterations(r int, outside int64) int64 {
	if r < 0 {
		return 1
	}
	return outside * ls.Bounds[r]
}
