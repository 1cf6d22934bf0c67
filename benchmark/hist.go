package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size latency histogram: exact below 128 ns, then 64 linear
// buckets per power of two (≤ 1.6 % wide). Recording never allocates, so the
// load generator adds nothing to the allocation counts it reports. Quantiles
// interpolate by rank inside the bucket, so they vary continuously instead of
// snapping to bucket edges.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

const (
	histSub     = 64
	histExact   = 2 * histSub // values below this get a bucket each
	histOctaves = 34          // reaches 2^41 ns ≈ 36 min
	histBuckets = histExact + histOctaves*histSub
)

func histIndex(ns uint64) int {
	if ns < histExact {
		return int(ns)
	}
	shift := bits.Len64(ns) - 7 // ns>>shift lies in [64,128)
	idx := histExact + (shift-1)*histSub + int(ns>>uint(shift)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the half-open value range [lo,hi) of a bucket.
func histBounds(idx int) (lo, hi float64) {
	if idx < histExact {
		return float64(idx), float64(idx + 1)
	}
	shift := uint((idx-histExact)/histSub + 1)
	m := uint64((idx-histExact)%histSub + histSub)
	return float64(m << shift), float64((m + 1) << shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.max = max(h.max, uint64(ns))
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		} else {
			cum = next
		}
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// meanBetween returns the mean of the values whose rank lies between the
// quantiles lo and hi, taking values as evenly spread inside a bucket. Unlike
// a single quantile it moves smoothly when the boundary between a fast and a
// slow population crosses the range.
func (h *hist) meanBetween(lo, hi float64) float64 {
	from, to := lo*float64(h.n), hi*float64(h.n)
	if to <= from {
		return 0
	}
	var cum, sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if a, b := max(from, cum), min(to, next); b > a {
			l, u := histBounds(i)
			sum += (b - a) * (l + (u-l)*((a+b)/2-cum)/float64(c))
		}
		if cum = next; cum >= to {
			break
		}
	}
	return sum / (to - from)
}

// median returns the median of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf is the linear-interpolation quantile of a small sample.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantileOf(xs, 0.75) - quantileOf(xs, 0.25)) / m
}
