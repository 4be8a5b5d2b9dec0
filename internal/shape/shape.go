// Package shape provides small integer and size utilities used throughout
// the Orojenesis flow: divisor enumeration for the perfect-factor tilings
// the paper's mapspace is built from (Sec. III-A — the source of the
// step pattern in every ski-slope figure), two-level factorizations of
// rank shapes, and human-readable byte formatting for reports.
package shape

import (
	"fmt"
	"sort"
)

// Divisors returns all positive divisors of n in ascending order.
// n must be >= 1; Divisors panics otherwise because a rank shape of zero
// or a negative bound is always a programming error in this code base.
func Divisors(n int64) []int64 {
	if n < 1 {
		panic(fmt.Sprintf("shape: Divisors(%d): argument must be >= 1", n))
	}
	var small, large []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			small = append(small, d)
			if q := n / d; q != d {
				large = append(large, q)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// CountDivisors returns the number of positive divisors of n.
func CountDivisors(n int64) int {
	return len(Divisors(n))
}

// Split is a two-level perfect factorization of a rank shape: the rank is
// tiled into an Inner (buffer-resident) tile iterated Outer times, with
// Inner*Outer equal to the full shape.
type Split struct {
	Inner int64 // buffer-level tile size
	Outer int64 // backing-store-level loop bound
}

// Splits returns every perfect two-level factorization of n, ordered by
// ascending inner tile size.
func Splits(n int64) []Split {
	divs := Divisors(n)
	out := make([]Split, len(divs))
	for i, d := range divs {
		out[i] = Split{Inner: d, Outer: n / d}
	}
	return out
}

// ThreeSplit is a three-level perfect factorization used by the fusion
// templates (e.g. K0/K1/K2 in the GEMM FFMT): Full = L0*L1*L2.
type ThreeSplit struct {
	L0, L1, L2 int64
}

// ThreeSplits returns every perfect three-level factorization of n.
func ThreeSplits(n int64) []ThreeSplit {
	var out []ThreeSplit
	for _, d0 := range Divisors(n) {
		rest := n / d0
		for _, d1 := range Divisors(rest) {
			out = append(out, ThreeSplit{L0: d0, L1: d1, L2: rest / d1})
		}
	}
	return out
}

// Product multiplies a slice of bounds, panicking on overflow. Access
// counts in this code base stay far below 2^63, but a silent wrap would be
// disastrous for a bounds tool, so we check. The panic names only the
// failing partial product and factor, so xs never escapes to the heap.
func Product(xs ...int64) int64 {
	p := int64(1)
	for _, x := range xs {
		if x == 0 {
			return 0
		}
		if p > (1<<62)/x {
			panic(fmt.Sprintf("shape: Product overflow: %d * %d", p, x))
		}
		p *= x
	}
	return p
}

// Factorial returns n! for 0 <= n <= 20 (the largest that fits an int64).
func Factorial(n int) int64 {
	if n < 0 || n > 20 {
		panic(fmt.Sprintf("shape: Factorial(%d): n must be in [0, 20]", n))
	}
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// CeilDiv returns ceil(a/b) for positive integers.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("shape: CeilDiv by %d", b))
	}
	return (a + b - 1) / b
}

// Max returns the larger of a and b.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxInt returns the larger of two ints.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FormatBytes renders a byte count with binary-prefix units, matching the
// axis labels used in the paper's figures (KB = 2^10, MB = 2^20, ...).
func FormatBytes(b int64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
	)
	switch {
	case b >= gb:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(gb))
	case b >= mb:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(mb))
	case b >= kb:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(kb))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Permutations returns all permutations of the integers [0, n). The result
// is deterministic: lexicographic order. n must be small (<= 8).
func Permutations(n int) [][]int {
	if n < 0 || n > 8 {
		panic(fmt.Sprintf("shape: Permutations(%d): n must be in [0, 8]", n))
	}
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			p := make([]int, len(prefix))
			copy(p, prefix)
			out = append(out, p)
			return
		}
		for i, v := range rest {
			nr := make([]int, 0, len(rest)-1)
			nr = append(nr, rest[:i]...)
			nr = append(nr, rest[i+1:]...)
			rec(append(prefix, v), nr)
		}
	}
	rec(nil, base)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
