package einsum

import "repro/internal/shape"

// DenseTensor is a tensor's projection compiled onto dense rank indices —
// the position of each rank in Einsum.Ranks — so the exhaustive evaluators
// can work on per-rank slices and bitmasks instead of name-keyed maps.
type DenseTensor struct {
	Output bool
	Size   int64 // total elements (TensorSize)

	// Relevant[i] reports whether rank i projects into the tensor.
	Relevant []bool
	// GroupDiv[i] is the grouping divisor the tensor applies to rank i
	// (GroupDivFor), 1 when the rank is ungrouped or absent.
	GroupDiv []int64
	Dims     []DenseDim
}

// DenseDim is one tensor dimension on dense rank indices.
type DenseDim struct {
	Terms    []DenseTerm
	GroupDiv int64 // > 1 for a grouped dim (single term), else 0 or 1
	Full     int64 // full extent of the dim (DimExtent over the rank shapes)
}

// DenseTerm is Coeff * index(rank Rank), Rank being a dense rank index.
type DenseTerm struct {
	Rank  int
	Coeff int64
}

// Dense compiles e's tensors onto dense rank indices. The Einsum must be
// valid.
func (e *Einsum) Dense() []DenseTensor {
	index := make(map[string]int, len(e.Ranks))
	for i, r := range e.Ranks {
		index[r.Name] = i
	}
	full := e.rankShapes()
	out := make([]DenseTensor, len(e.Tensors))
	for ti := range e.Tensors {
		t := &e.Tensors[ti]
		dt := DenseTensor{
			Output:   t.Output,
			Size:     e.TensorSize(t),
			Relevant: make([]bool, len(e.Ranks)),
			GroupDiv: make([]int64, len(e.Ranks)),
		}
		for i, r := range e.Ranks {
			dt.Relevant[i] = t.Relevant(r.Name)
			dt.GroupDiv[i] = t.GroupDivFor(r.Name)
		}
		for j := range t.Dims {
			d := &t.Dims[j]
			dd := DenseDim{GroupDiv: d.GroupDiv, Full: d.DimExtent(full)}
			for _, term := range d.Terms {
				dd.Terms = append(dd.Terms, DenseTerm{Rank: index[term.Rank], Coeff: term.Coeff})
			}
			dt.Dims = append(dt.Dims, dd)
		}
		out[ti] = dt
	}
	return out
}

// Footprint is Einsum.Footprint on dense per-rank tile sizes: the elements
// of the tensor a tile touches, each dim clamped to its full extent.
func (t *DenseTensor) Footprint(tile []int64) int64 {
	fp := int64(1)
	for i := range t.Dims {
		d := &t.Dims[i]
		var ext int64
		if d.GroupDiv > 1 {
			ext = shape.CeilDiv(tile[d.Terms[0].Rank], d.GroupDiv)
		} else {
			ext = 1
			for _, term := range d.Terms {
				ext += term.Coeff * (tile[term.Rank] - 1)
			}
		}
		if ext > d.Full {
			ext = d.Full
		}
		// No overflow check needed: every dim is clamped to its full
		// extent, so fp never exceeds the tensor size TensorSize checked.
		fp *= ext
	}
	return fp
}
