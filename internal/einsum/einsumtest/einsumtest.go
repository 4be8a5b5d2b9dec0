// Package einsumtest builds metamorphic variants of an Einsum for tests:
// the same computation with its ranks listed in another order or renamed,
// or its tensors listed in another order. Every bound this repository
// derives is a function of the computation alone, so each variant must
// give byte-identical curves; a variant that does not exposes a
// dependence on enumeration order or on a name — for example in a
// shortcut keyed on which rank varies fastest.
package einsumtest

import (
	"fmt"

	"repro/internal/einsum"
)

// Variant is one relabelled copy of an Einsum.
type Variant struct {
	Name string
	E    *einsum.Einsum
}

// Relabel returns a deep copy of e with its ranks listed in rankOrder
// (indices into e.Ranks), every rank renamed by rename, and its tensors
// listed in tensorOrder (indices into e.Tensors). A nil order keeps e's
// order; a nil rename keeps the names. It panics if the result is not a
// valid Einsum.
func Relabel(e *einsum.Einsum, rankOrder []int, rename func(string) string, tensorOrder []int) *einsum.Einsum {
	if rename == nil {
		rename = func(s string) string { return s }
	}
	if rankOrder == nil {
		rankOrder = identity(len(e.Ranks))
	}
	if tensorOrder == nil {
		tensorOrder = identity(len(e.Tensors))
	}
	out := &einsum.Einsum{Name: e.Name, ElementSize: e.ElementSize}
	for _, i := range rankOrder {
		r := e.Ranks[i]
		out.Ranks = append(out.Ranks, einsum.Rank{Name: rename(r.Name), Shape: r.Shape})
	}
	for _, i := range tensorOrder {
		t := e.Tensors[i]
		c := einsum.Tensor{Name: t.Name, Output: t.Output}
		for _, d := range t.Dims {
			nd := einsum.Dim{GroupDiv: d.GroupDiv}
			for _, term := range d.Terms {
				nd.Terms = append(nd.Terms, einsum.Term{Rank: rename(term.Rank), Coeff: term.Coeff})
			}
			c.Dims = append(c.Dims, nd)
		}
		out.Tensors = append(out.Tensors, c)
	}
	if err := out.Validate(); err != nil {
		panic(fmt.Sprintf("einsumtest: Relabel(%s): %v", e.Name, err))
	}
	return out
}

// Variants returns the metamorphic variants of e: ranks reversed, ranks
// rotated by one (a different rank varies fastest), every rank renamed,
// tensors reversed, and all of these at once.
func Variants(e *einsum.Einsum) []Variant {
	n, nt := len(e.Ranks), len(e.Tensors)
	reversed := func(k int) []int {
		o := identity(k)
		for i, j := 0, k-1; i < j; i, j = i+1, j-1 {
			o[i], o[j] = o[j], o[i]
		}
		return o
	}
	rotated := make([]int, n)
	for i := range rotated {
		rotated[i] = (i + 1) % n
	}
	rename := func(s string) string { return "r_" + s }
	return []Variant{
		{"ranks reversed", Relabel(e, reversed(n), nil, nil)},
		{"ranks rotated", Relabel(e, rotated, nil, nil)},
		{"ranks renamed", Relabel(e, nil, rename, nil)},
		{"tensors reversed", Relabel(e, nil, nil, reversed(nt))},
		{"all relabelled", Relabel(e, rotated, rename, reversed(nt))},
	}
}

func identity(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}
