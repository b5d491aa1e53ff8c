// Package series provides the data series kernel used by every index in this
// repository: the in-memory representation of fixed-length real-valued
// sequences, Euclidean and dynamic-time-warping distances, z-normalization,
// and the query envelopes used by lower-bounding scans.
//
// A data series S = {p1, ..., pn} is an ordered sequence of real values
// (paper §II). Values are stored as float32, matching the authors' C
// implementations; all distance accumulation is performed in float64 so that
// results are deterministic across the serial and parallel code paths.
//
// Unless stated otherwise every "distance" in this package and in the index
// packages is the SQUARED Euclidean distance. Working with squared distances
// avoids a square root per candidate; public API boundaries apply math.Sqrt.
package series

import (
	"errors"
	"fmt"
	"math"
)

// Series is a single fixed-length data series.
type Series []float32

// ErrLengthMismatch is returned when two series of different lengths are
// combined in an operation that requires equal lengths.
var ErrLengthMismatch = errors.New("series: length mismatch")

// Clone returns a deep copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Mean returns the arithmetic mean of the values of s. The mean of an empty
// series is 0.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// Stddev returns the population standard deviation of s. The standard
// deviation of an empty series is 0.
func (s Series) Stddev() float64 {
	if len(s) == 0 {
		return 0
	}
	mean := s.Mean()
	var acc float64
	for _, v := range s {
		d := float64(v) - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s)))
}

// ZNormalize returns a z-normalized copy of s: zero mean, unit variance.
// Constant series (zero variance) normalize to all zeros, following the UCR
// Suite convention.
func (s Series) ZNormalize() Series {
	out := make(Series, len(s))
	mean := s.Mean()
	sd := s.Stddev()
	if sd == 0 {
		return out
	}
	for i, v := range s {
		out[i] = float32((float64(v) - mean) / sd)
	}
	return out
}

// ZNormalizeInPlace z-normalizes s without allocating.
func (s Series) ZNormalizeInPlace() {
	mean := s.Mean()
	sd := s.Stddev()
	if sd == 0 {
		for i := range s {
			s[i] = 0
		}
		return
	}
	for i, v := range s {
		s[i] = float32((float64(v) - mean) / sd)
	}
}

// SquaredED returns the squared Euclidean distance between a and b.
// It panics if the lengths differ; index code guarantees equal lengths.
func SquaredED(a, b Series) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("series: SquaredED length mismatch %d != %d", len(a), len(b)))
	}
	var acc float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		acc += d * d
	}
	return acc
}

// ED returns the Euclidean distance between a and b.
func ED(a, b Series) float64 { return math.Sqrt(SquaredED(a, b)) }

// Check reports why s cannot be a query over, or a member of, an index of
// series of length n, or nil. A NaN or infinite value is refused: no
// distance to or from it orders, so as a query it has no nearest neighbour,
// as a member it is nobody's, and every lower bound an index prunes by
// would be NaN or +Inf too. Callers prefix the error with what s is
// ("query", "append").
func Check(s Series, n int) error {
	if len(s) != n {
		return fmt.Errorf("length %d != %d", len(s), n)
	}
	for i, x := range s {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("value %d is %v, want a finite number", i, x)
		}
	}
	return nil
}

// Collection is a contiguous, flat container of equal-length series: the
// in-memory "RawData" array of MESSI (paper Figure 3) and the raw data buffer
// of ParIS. Storing all values in one backing slice keeps series access
// cache-friendly and allocation-free.
type Collection struct {
	n      int // number of series
	length int // points per series
	values []float32
}

// NewCollection allocates a collection of n series of the given length.
func NewCollection(n, length int) *Collection {
	if n < 0 || length <= 0 {
		panic(fmt.Sprintf("series: invalid collection shape n=%d length=%d", n, length))
	}
	return &Collection{n: n, length: length, values: make([]float32, n*length)}
}

// CollectionFromValues wraps an existing flat value slice. len(values) must
// be a multiple of length.
func CollectionFromValues(values []float32, length int) (*Collection, error) {
	if length <= 0 {
		return nil, fmt.Errorf("series: invalid series length %d", length)
	}
	if len(values)%length != 0 {
		return nil, fmt.Errorf("series: %d values not divisible by series length %d: %w",
			len(values), length, ErrLengthMismatch)
	}
	return &Collection{n: len(values) / length, length: length, values: values}, nil
}

// Len returns the number of series in the collection.
func (c *Collection) Len() int { return c.n }

// SeriesLen returns the number of points in each series.
func (c *Collection) SeriesLen() int { return c.length }

// At returns the i-th series as a view into the backing array. The caller
// must not hold the view across a Set to the same slot.
func (c *Collection) At(i int) Series {
	return Series(c.values[i*c.length : (i+1)*c.length : (i+1)*c.length])
}

// Set copies s into slot i. It panics if the length of s differs from the
// collection's series length.
func (c *Collection) Set(i int, s Series) {
	if len(s) != c.length {
		panic(fmt.Sprintf("series: Set length mismatch %d != %d", len(s), c.length))
	}
	copy(c.values[i*c.length:(i+1)*c.length], s)
}

// Values exposes the flat backing array: n*length float32 values, series i
// occupying [i*length, (i+1)*length).
func (c *Collection) Values() []float32 { return c.values }

// Append grows the collection by one series and returns its index.
func (c *Collection) Append(s Series) int {
	if len(s) != c.length {
		panic(fmt.Sprintf("series: Append length mismatch %d != %d", len(s), c.length))
	}
	c.values = append(c.values, s...)
	c.n++
	return c.n - 1
}

// Slice returns a view collection of series [lo, hi).
func (c *Collection) Slice(lo, hi int) *Collection {
	if lo < 0 || hi > c.n || lo > hi {
		panic(fmt.Sprintf("series: Slice bounds [%d,%d) out of range n=%d", lo, hi, c.n))
	}
	return &Collection{
		n:      hi - lo,
		length: c.length,
		values: c.values[lo*c.length : hi*c.length],
	}
}

// BruteForce1NN scans the whole collection and returns the index and squared
// Euclidean distance of the nearest neighbor of q. It is the reference
// answer for the exactness tests of every index in this repository.
func (c *Collection) BruteForce1NN(q Series) (best int, bestDist float64) {
	best, bestDist = -1, math.Inf(1)
	for i := 0; i < c.n; i++ {
		if d := SquaredED(q, c.At(i)); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}
