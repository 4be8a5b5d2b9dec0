package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of per-operation latencies.
type samples []time.Duration

// quantile returns the q-quantile (0..1) by linear interpolation between
// the closest ranks; 0 when empty.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[hi]-c[lo]))
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// geomean returns the geometric mean of positive values.
func geomean(vs ...float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// medianFloat returns the median of vs; 0 when empty.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
