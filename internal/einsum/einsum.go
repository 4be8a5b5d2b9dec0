// Package einsum models tensor-algebra workloads as Einsums: computations
// over a set of ranks that read input tensors and produce one output
// tensor. Tensor dimensions are described with projections from ranks —
// plain identity, strided/dilated affine sums (convolution), or grouped
// integer division (grouped-query attention) — which is enough to express
// every workload analysed in the paper: GEMM, Conv2D, BMM and grouped BMM.
package einsum

import (
	"fmt"
	"strings"

	"repro/internal/shape"
)

// Rank is a named iteration dimension of an Einsum with a fixed shape
// (loop extent). The json tags define the workload-spec wire format
// (docs/workload-spec.md); rank order is significant — it fixes the
// enumeration order of the mapspace.
type Rank struct {
	Name  string `json:"name"`
	Shape int64  `json:"shape"`
}

// Term is one affine contribution to a tensor dimension: Coeff * index(Rank).
// A convolution input width T*P + D*R has two terms: {P, T} and {R, D}.
type Term struct {
	Rank  string `json:"rank"`
	Coeff int64  `json:"coeff"`
}

// Dim is a single dimension of a tensor. Its index is either the affine sum
// of Terms, or — when GroupDiv > 1 — floor(index(Terms[0].Rank) / GroupDiv),
// which models the head-sharing of grouped BMM (MQA/GQA).
type Dim struct {
	Terms    []Term `json:"terms"`
	GroupDiv int64  `json:"group_div,omitempty"` // 0 or 1 for affine dims; > 1 for grouped dims
}

// Tensor names an operand of an Einsum and describes how its dimensions
// project from the Einsum's ranks.
type Tensor struct {
	Name   string `json:"name"`
	Dims   []Dim  `json:"dims"`
	Output bool   `json:"output,omitempty"` // true for the (single) produced tensor
}

// Einsum is an un-mapped tensor computation. Every point in the iteration
// space (the cross product of the rank shapes) performs one multiply-
// accumulate. The json tags define the structural encoding used by
// workload specs (internal/workload): unlike the textual expression
// syntax, it round-trips the name, element size and rank order exactly.
type Einsum struct {
	Name        string   `json:"name"`
	Ranks       []Rank   `json:"ranks"`
	Tensors     []Tensor `json:"tensors"`
	ElementSize int64    `json:"element_size"` // bytes per element (the paper reports 2-byte data)
}

// DefaultElementSize is the operand width used throughout the paper's
// experiments (fp16/bf16).
const DefaultElementSize = 2

// MaxTensors caps the tensors of an Einsum: the loop-order search
// (nest.OrderSearch) tracks sets of tensors as 64-bit masks.
const MaxTensors = 64

// Validate checks internal consistency: unique rank names, at least one
// input and exactly one output tensor, at most MaxTensors tensors, and
// every projection referring to a declared rank. It returns a descriptive
// error for the first problem found.
func (e *Einsum) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("einsum: missing name")
	}
	if e.ElementSize <= 0 {
		return fmt.Errorf("einsum %s: non-positive element size %d", e.Name, e.ElementSize)
	}
	if len(e.Ranks) == 0 {
		return fmt.Errorf("einsum %s: no ranks", e.Name)
	}
	seen := map[string]bool{}
	for _, r := range e.Ranks {
		if r.Shape < 1 {
			return fmt.Errorf("einsum %s: rank %s has shape %d", e.Name, r.Name, r.Shape)
		}
		if seen[r.Name] {
			return fmt.Errorf("einsum %s: duplicate rank %s", e.Name, r.Name)
		}
		seen[r.Name] = true
	}
	outputs := 0
	for _, t := range e.Tensors {
		if t.Output {
			outputs++
		}
		for _, d := range t.Dims {
			if len(d.Terms) == 0 {
				return fmt.Errorf("einsum %s: tensor %s has a dimension with no terms", e.Name, t.Name)
			}
			if d.GroupDiv > 1 && len(d.Terms) != 1 {
				return fmt.Errorf("einsum %s: tensor %s: grouped dims must have exactly one term", e.Name, t.Name)
			}
			for _, term := range d.Terms {
				if !seen[term.Rank] {
					return fmt.Errorf("einsum %s: tensor %s references unknown rank %s", e.Name, t.Name, term.Rank)
				}
				if term.Coeff < 1 {
					return fmt.Errorf("einsum %s: tensor %s rank %s has coefficient %d", e.Name, t.Name, term.Rank, term.Coeff)
				}
			}
		}
	}
	if outputs != 1 {
		return fmt.Errorf("einsum %s: want exactly 1 output tensor, have %d", e.Name, outputs)
	}
	if len(e.Tensors) < 2 {
		return fmt.Errorf("einsum %s: want at least one input and one output tensor", e.Name)
	}
	if len(e.Tensors) > MaxTensors {
		return fmt.Errorf("einsum %s: %d tensors, at most %d supported", e.Name, len(e.Tensors), MaxTensors)
	}
	return nil
}

// RankShape returns the shape of the named rank, or panics if the rank does
// not exist (always a programming error here).
func (e *Einsum) RankShape(name string) int64 {
	for _, r := range e.Ranks {
		if r.Name == name {
			return r.Shape
		}
	}
	panic(fmt.Sprintf("einsum %s: unknown rank %s", e.Name, name))
}

// Output returns the Einsum's output tensor.
func (e *Einsum) Output() *Tensor {
	for i := range e.Tensors {
		if e.Tensors[i].Output {
			return &e.Tensors[i]
		}
	}
	panic(fmt.Sprintf("einsum %s: no output tensor", e.Name))
}

// Inputs returns the input tensors in declaration order.
func (e *Einsum) Inputs() []*Tensor {
	var in []*Tensor
	for i := range e.Tensors {
		if !e.Tensors[i].Output {
			in = append(in, &e.Tensors[i])
		}
	}
	return in
}

// Relevant reports whether the named rank affects tensor t's footprint,
// i.e. whether any dimension of t projects from it.
func (t *Tensor) Relevant(rank string) bool {
	for _, d := range t.Dims {
		for _, term := range d.Terms {
			if term.Rank == rank {
				return true
			}
		}
	}
	return false
}

// GroupDivFor returns the grouping divisor tensor t applies to the named
// rank (1 if the rank is used ungrouped or not at all).
func (t *Tensor) GroupDivFor(rank string) int64 {
	for _, d := range t.Dims {
		if d.GroupDiv > 1 && d.Terms[0].Rank == rank {
			return d.GroupDiv
		}
	}
	return 1
}

// DimExtent returns the full extent of dimension d given the rank shapes in
// shapes: for affine dims Σ coeff*(shape-1) + 1, for grouped dims
// ceil(shape / GroupDiv).
func (d *Dim) DimExtent(shapes map[string]int64) int64 {
	return d.extent(func(r string) int64 { return shapes[r] })
}

func (d *Dim) extent(tileOf func(string) int64) int64 {
	if d.GroupDiv > 1 {
		return shape.CeilDiv(tileOf(d.Terms[0].Rank), d.GroupDiv)
	}
	ext := int64(1)
	for _, term := range d.Terms {
		ext += term.Coeff * (tileOf(term.Rank) - 1)
	}
	return ext
}

// Footprint returns the number of elements of tensor t touched by a tile
// with the given per-rank tile sizes. Ranks not present in the map default
// to tile size 1. The footprint of each dimension is clamped to the
// dimension's full extent (a strided tile can project past the array edge
// only up to the real data).
func (e *Einsum) Footprint(t *Tensor, tile map[string]int64) int64 {
	full := e.rankShapes()
	fp := int64(1)
	for i := range t.Dims {
		d := &t.Dims[i]
		got := d.extent(func(r string) int64 {
			if v, ok := tile[r]; ok {
				return v
			}
			return 1
		})
		if max := d.DimExtent(full); got > max {
			got = max
		}
		fp = shape.Product(fp, got)
	}
	return fp
}

// TensorSize returns the total number of elements in tensor t.
func (e *Einsum) TensorSize(t *Tensor) int64 {
	return e.Footprint(t, e.rankShapes())
}

// TensorSizeBytes returns tensor t's size in bytes.
func (e *Einsum) TensorSizeBytes(t *Tensor) int64 {
	return e.TensorSize(t) * e.ElementSize
}

func (e *Einsum) rankShapes() map[string]int64 {
	m := make(map[string]int64, len(e.Ranks))
	for _, r := range e.Ranks {
		m[r.Name] = r.Shape
	}
	return m
}

// MACs returns the number of multiply-accumulate operations: the product of
// all rank shapes.
func (e *Einsum) MACs() int64 {
	p := int64(1)
	for _, r := range e.Ranks {
		p = shape.Product(p, r.Shape)
	}
	return p
}

// AlgorithmicMinElements is the paper's "algorithmic minimum" (compulsory
// traffic): each input read once plus the output written once, in elements.
func (e *Einsum) AlgorithmicMinElements() int64 {
	var sum int64
	for i := range e.Tensors {
		sum += e.TensorSize(&e.Tensors[i])
	}
	return sum
}

// AlgorithmicMinBytes is AlgorithmicMinElements scaled to bytes.
func (e *Einsum) AlgorithmicMinBytes() int64 {
	return e.AlgorithmicMinElements() * e.ElementSize
}

// AlgorithmicOI is the classic compute-to-traffic ratio using the
// algorithmic minimum: MACs per element moved.
func (e *Einsum) AlgorithmicOI() float64 {
	return float64(e.MACs()) / float64(e.AlgorithmicMinElements())
}

// TotalOperandBytes sums the sizes of all operands (the normalizer for the
// paper's Gap 1 / Fig. 11 ratios).
func (e *Einsum) TotalOperandBytes() int64 {
	return e.AlgorithmicMinBytes()
}

// SmallestOperandElements returns the size of the smallest operand, which
// Sec. IV-1 shows approximates the maximal effectual buffer size for GEMMs.
func (e *Einsum) SmallestOperandElements() int64 {
	min := int64(-1)
	for i := range e.Tensors {
		s := e.TensorSize(&e.Tensors[i])
		if min < 0 || s < min {
			min = s
		}
	}
	return min
}

// String renders the Einsum in a compact notation close to the paper's,
// e.g. "B[m,n] = A[m,k] * W[k,n] {M=4096 K=4096 N=4096}".
func (e *Einsum) String() string {
	var b strings.Builder
	out := e.Output()
	b.WriteString(tensorSig(out))
	b.WriteString(" = ")
	for i, in := range e.Inputs() {
		if i > 0 {
			b.WriteString(" * ")
		}
		b.WriteString(tensorSig(in))
	}
	b.WriteString(" {")
	for i, r := range e.Ranks {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", r.Name, r.Shape)
	}
	b.WriteByte('}')
	return b.String()
}

// Canonical renders a complete, deterministic encoding of the Einsum —
// name, element size, ranks and every tensor projection — for workload
// digests (internal/shard): two Einsums with equal Canonical strings have
// identical mapspaces and identical derived curves. Unlike String it
// includes the name and element size, so curves derived for differently
// labelled but otherwise equal workloads are still distinguished.
func (e *Einsum) Canonical() string {
	return fmt.Sprintf("einsum{name=%s es=%d %s}", e.Name, e.ElementSize, e.String())
}

func tensorSig(t *Tensor) string {
	var b strings.Builder
	b.WriteString(t.Name)
	b.WriteByte('[')
	for i, d := range t.Dims {
		if i > 0 {
			b.WriteByte(',')
		}
		for j, term := range d.Terms {
			if j > 0 {
				b.WriteByte('+')
			}
			if term.Coeff != 1 {
				fmt.Fprintf(&b, "%d", term.Coeff)
			}
			b.WriteString(strings.ToLower(term.Rank))
		}
		if d.GroupDiv > 1 {
			fmt.Fprintf(&b, "/%d", d.GroupDiv)
		}
	}
	b.WriteByte(']')
	return b.String()
}
