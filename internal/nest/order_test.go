package nest

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/shape"
)

// bruteMinLex is the reference OrderSearch.MinLex: it walks every order of
// the loops, locates each tensor's innermost relevant loop by scanning the
// nest, and keeps the lexicographic minimum of the summed costs.
func bruteMinLex(t *testing.T, bounds []int64, relevant []uint64, cost Cost) (int64, int64) {
	k := len(bounds)
	bestA, bestB := int64(-1), int64(-1)
	for _, perm := range shape.Permutations(k) {
		loops := make([]Loop, k)
		for pos, l := range perm {
			loops[pos] = Loop{Rank: strconv.Itoa(l), Bound: bounds[l]}
		}
		var a, b int64
		for ti, rel := range relevant {
			inner, outside := -1, int64(1)
			for pos, l := range perm {
				if rel&(1<<l) != 0 {
					inner = pos
				}
			}
			for pos := 0; pos < inner; pos++ {
				outside *= loops[pos].Bound
			}
			r := -1
			if inner >= 0 {
				r = perm[inner]
			}
			// The scan must agree with the product rule it stands for.
			want := Iterations(loops, func(rank string) bool {
				l, _ := strconv.Atoi(rank)
				return rel&(1<<l) != 0
			})
			got := outside
			if r >= 0 {
				got *= bounds[r]
			}
			if got != want {
				t.Fatalf("scan gives %d iterations, product rule %d", got, want)
			}
			ca, cb := cost(ti, r, outside)
			a += ca
			b += cb
		}
		if bestA < 0 || a < bestA || (a == bestA && b < bestB) {
			bestA, bestB = a, b
		}
	}
	return bestA, bestB
}

// TestMinLexMatchesEveryOrder checks the subset DP against exhaustive
// order enumeration on random nests, relevance masks and non-linear
// two-objective costs (including tensors no loop is relevant to).
func TestMinLexMatchesEveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var o OrderSearch
	for trial := 0; trial < 400; trial++ {
		k := rng.Intn(7)
		bounds := make([]int64, k)
		for i := range bounds {
			bounds[i] = 2 + rng.Int63n(6)
		}
		tensors := 1 + rng.Intn(4)
		relevant := make([]uint64, tensors)
		weight := make([]int64, tensors)
		for ti := range relevant {
			if k > 0 {
				relevant[ti] = uint64(rng.Intn(1 << k))
			}
			weight[ti] = 1 + rng.Int63n(9)
		}
		cost := func(ti, r int, outside int64) (int64, int64) {
			iters := outside
			if r >= 0 {
				iters *= bounds[r]
			}
			// Neither objective is linear in iters, and the secondary one
			// is not monotone, so ties on the primary are broken for real.
			return weight[ti]*iters + iters*iters%5, (iters*weight[ti] + int64(r)) % 11
		}
		ga, gb := o.MinLex(bounds, relevant, cost)
		wa, wb := bruteMinLex(t, bounds, relevant, cost)
		if ga != wa || gb != wb {
			t.Fatalf("trial %d bounds %v rel %v: MinLex (%d, %d), every order (%d, %d)",
				trial, bounds, relevant, ga, gb, wa, wb)
		}
	}
}

func TestMinLexNoLoops(t *testing.T) {
	var o OrderSearch
	a, b := o.MinLex(nil, []uint64{0, 0}, func(ti, r int, outside int64) (int64, int64) {
		if r != -1 || outside != 1 {
			t.Fatalf("resident tensor priced at r=%d outside=%d", r, outside)
		}
		return int64(10 * (ti + 1)), 1
	})
	if a != 30 || b != 2 {
		t.Fatalf("got (%d, %d), want (30, 2)", a, b)
	}
}

func TestMinLexRejectsHugeNests(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinLex accepted more loops than MaxOrderLoops")
		}
	}()
	var o OrderSearch
	o.MinLex(make([]int64, MaxOrderLoops+1), nil, nil)
}

func BenchmarkMinLex(b *testing.B) {
	// A six-loop conv-like nest with three tensors.
	bounds := []int64{4, 4, 8, 8, 3, 3}
	relevant := []uint64{0b111011, 0b111100, 0b000111}
	fp := []int64{96, 120, 64}
	cost := func(ti, r int, outside int64) (int64, int64) {
		if r < 0 {
			return fp[ti], 0
		}
		return fp[ti] * outside * bounds[r], 0
	}
	var o OrderSearch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.MinLex(bounds, relevant, cost)
	}
}
