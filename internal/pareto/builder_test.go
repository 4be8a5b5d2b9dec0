package pareto

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// builderInputs generates the point streams the Builder property test
// feeds: each shape stresses a different path through Add (dominated
// drops, tail growth, compactions that cannot shrink the slice).
var builderInputs = map[string]func(rng *rand.Rand, n int) []Point{
	"random": func(rng *rand.Rand, n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Int63n(1<<16) + 1, rng.Int63n(1<<24) + 1}
		}
		return pts
	},
	"ascendingBuffer": func(rng *rand.Rand, n int) []Point {
		pts := make([]Point, n)
		buf := int64(1)
		for i := range pts {
			buf += rng.Int63n(3)
			pts[i] = Point{buf, rng.Int63n(1<<20) + 1}
		}
		return pts
	},
	"descendingBuffer": func(rng *rand.Rand, n int) []Point {
		pts := make([]Point, n)
		buf := int64(3*n + 1)
		for i := range pts {
			buf -= rng.Int63n(3)
			pts[i] = Point{buf, rng.Int63n(1<<20) + 1}
		}
		return pts
	},
	// Every point is Pareto-optimal and each arrives with a smaller buffer
	// than all before it, so none is ever dropped on arrival.
	"antiSortedStaircase": func(rng *rand.Rand, n int) []Point {
		pts := make([]Point, n)
		buf, acc := int64(1), int64(1<<40)
		for i := n - 1; i >= 0; i-- {
			buf += rng.Int63n(4) + 1
			acc -= rng.Int63n(4) + 1
			pts[i] = Point{buf, acc}
		}
		return pts
	},
	"duplicates": func(rng *rand.Rand, n int) []Point {
		pool := make([]Point, 1+rng.Intn(16))
		for i := range pool {
			pool[i] = Point{rng.Int63n(64) + 1, rng.Int63n(64) + 1}
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pool[rng.Intn(len(pool))]
		}
		return pts
	},
	"equalBufferTies": func(rng *rand.Rand, n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Int63n(8) + 1, rng.Int63n(1<<12) + 1}
		}
		return pts
	},
}

// TestBuilderMatchesCompact: for every input shape, the Builder's curve —
// final and at random points in between — equals compact over all the
// points added so far.
func TestBuilderMatchesCompact(t *testing.T) {
	for name, gen := range builderInputs {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := []int{1, 5, 63, 64, 65, 200, 3000, 20000}[rng.Intn(8)]
			pts := gen(rng, n)
			b := NewBuilder()
			check := func(upto int) {
				t.Helper()
				want := compact(slices.Clone(pts[:upto]))
				got := b.Curve().Points()
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d after %d of %d Adds: builder %d points, compact %d points",
						name, seed, upto, n, len(got), len(want))
				}
			}
			for i, p := range pts {
				b.Add(p.BufferBytes, p.AccessBytes)
				if rng.Intn(n/4+1) == 0 {
					check(i + 1)
				}
			}
			check(n)
		}
	}
}

// TestBuilderEmptyCurve: a Builder with no Adds yields an empty curve, and
// so does the zero Builder.
func TestBuilderEmptyCurve(t *testing.T) {
	if !NewBuilder().Curve().Empty() {
		t.Fatal("empty builder produced points")
	}
	var b Builder
	b.Add(3, 4)
	b.Add(5, 4) // dominated
	if got := b.Curve().Points(); !slices.Equal(got, []Point{{3, 4}}) {
		t.Fatalf("zero Builder curve = %v", got)
	}
}

// BenchmarkBuilderAdd measures Add on three input shapes: points the
// staircase already dominates (the common case in a mapspace sweep),
// uniformly random points, and an anti-sorted all-optimal staircase (the
// worst case, every point kept).
func BenchmarkBuilderAdd(b *testing.B) {
	const ring = 1 << 16
	rng := rand.New(rand.NewSource(1))
	random := builderInputs["random"](rng, ring)

	b.Run("dominated", func(b *testing.B) {
		// A 1024-point staircase; each added point sits just above it.
		bl := NewBuilder()
		for i := int64(0); i < 1024; i++ {
			bl.Add(16*i+1, 1<<30-1024*i)
		}
		bl.Curve()
		pts := make([]Point, ring)
		for i := range pts {
			pts[i] = Point{rng.Int63n(1<<14) + 1, 1 << 30}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pts[i%ring]
			bl.Add(p.BufferBytes, p.AccessBytes)
		}
	})
	b.Run("random", func(b *testing.B) {
		bl := NewBuilder()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := random[i%ring]
			bl.Add(p.BufferBytes, p.AccessBytes)
		}
	})
	b.Run("antiSorted", func(b *testing.B) {
		bl := NewBuilder()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl.Add(int64(b.N-i), int64(i+1))
		}
	})
}

// FuzzUnmarshalJSON: any curve UnmarshalJSON accepts is a strict staircase
// of positive points, and marshalling it, unmarshalling that and
// marshalling again reproduces the same bytes.
func FuzzUnmarshalJSON(f *testing.F) {
	for _, s := range []string{
		`{"points":[]}`,
		`{"points":[{"BufferBytes":100,"AccessBytes":1000},{"BufferBytes":400,"AccessBytes":100}]}`,
		`{"algo_min_bytes":50,"total_operand_bytes":800,"points":[{"BufferBytes":100,"AccessBytes":1000}]}`,
		`{"points":[
			{"BufferBytes":100,"AccessBytes":1000},
			{"BufferBytes":200,"AccessBytes":2000},
			{"BufferBytes":400,"AccessBytes":100}]}`,
		`{"points":[{"BufferBytes":0,"AccessBytes":10}]}`,
		`{"algo_min_bytes":-1,"points":[{"BufferBytes":10,"AccessBytes":100}]}`,
		`{"total_operand_bytes":-5,"points":[{"BufferBytes":10,"AccessBytes":100}]}`,
		`{"algo_min_bytes":200,"points":[{"BufferBytes":10,"AccessBytes":500},{"BufferBytes":40,"AccessBytes":100}]}`,
		`{"algo_min_bytes":100,"total_operand_bytes":300,"points":[{"BufferBytes":10,"AccessBytes":100}]}`,
		`{"degraded":true,"points":[{"BufferBytes":10,"AccessBytes":100},{"BufferBytes":10,"AccessBytes":90}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Curve
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		pts := c.Points()
		for i, p := range pts {
			if p.BufferBytes < 1 || p.AccessBytes < 1 {
				t.Fatalf("accepted non-positive point %v", p)
			}
			if i > 0 && (p.BufferBytes <= pts[i-1].BufferBytes || p.AccessBytes >= pts[i-1].AccessBytes) {
				t.Fatalf("accepted curve is not a staircase at %d: %v then %v", i, pts[i-1], p)
			}
		}
		first, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		var back Curve
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("round trip changed the encoding\nfirst  %s\nsecond %s", first, second)
		}
	})
}

func ExampleBuilder() {
	b := NewBuilder()
	b.Add(64, 4000)
	b.Add(256, 1200)
	b.Add(128, 5000) // dominated by (64, 4000): dropped on arrival
	fmt.Println(b.Curve().Points())
	// Output: [{64 4000} {256 1200}]
}
