package vector

// This file is the scalar ORACLE: the pure-Go, always-compiled reference
// implementation of the pinned summation contract (see the package
// comment). The assembly kernels must match these functions bit for bit on
// every input; the differential fuzz targets enforce it. The float64(...)
// conversions around each product are rounding points required by the Go
// spec — they forbid the compiler from fusing the multiply into the
// following add (which gc does on arm64/ppc64), so the oracle computes the
// same bits on every platform.

// ScalarSquaredED is the oracle form of SquaredED: the pinned 4-lane
// accumulation, never dispatched to assembly.
func ScalarSquaredED(a, b []float32) float64 {
	_ = b[len(a)-1]
	return scalarSquaredED(a, b)
}

func scalarSquaredED(a, b []float32) float64 {
	n := len(a)
	var l0, l1, l2, l3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		l0 += float64(d0 * d0)
		l1 += float64(d1 * d1)
		l2 += float64(d2 * d2)
		l3 += float64(d3 * d3)
	}
	r := (l0 + l1) + (l2 + l3)
	for ; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		r += float64(d * d)
	}
	return r
}

// ScalarSquaredEDEarlyAbandon is the oracle form of SquaredEDEarlyAbandon.
func ScalarSquaredEDEarlyAbandon(a, b []float32, limit float64) float64 {
	_ = b[len(a)-1]
	return scalarSquaredEDEarlyAbandon(a, b, limit)
}

func scalarSquaredEDEarlyAbandon(a, b []float32, limit float64) float64 {
	n := len(a)
	var l0, l1, l2, l3 float64
	i := 0
	for ; i+16 <= n; i += 16 {
		for j := i; j < i+16; j += 4 {
			d0 := float64(a[j]) - float64(b[j])
			d1 := float64(a[j+1]) - float64(b[j+1])
			d2 := float64(a[j+2]) - float64(b[j+2])
			d3 := float64(a[j+3]) - float64(b[j+3])
			l0 += float64(d0 * d0)
			l1 += float64(d1 * d1)
			l2 += float64(d2 * d2)
			l3 += float64(d3 * d3)
		}
		if r := (l0 + l1) + (l2 + l3); r > limit {
			return r
		}
	}
	for ; i+4 <= n; i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		l0 += float64(d0 * d0)
		l1 += float64(d1 * d1)
		l2 += float64(d2 * d2)
		l3 += float64(d3 * d3)
	}
	r := (l0 + l1) + (l2 + l3)
	for ; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		r += float64(d * d)
	}
	return r
}

// ScalarMinDistLookup16 is the oracle form of MinDistLookup16.
func ScalarMinDistLookup16(cells []float64, sax []uint8, card int) float64 {
	_ = sax[15]
	_ = cells[16*card-1]
	return scalarMinDistLookup16(cells, sax, card)
}

func scalarMinDistLookup16(cells []float64, sax []uint8, card int) float64 {
	mask := card - 1 // card is a power of two; symbols reduce modulo card
	var l0, l1, l2, l3 float64
	for k := 0; k < 16; k += 4 {
		l0 += cells[k*card+int(sax[k])&mask]
		l1 += cells[(k+1)*card+int(sax[k+1])&mask]
		l2 += cells[(k+2)*card+int(sax[k+2])&mask]
		l3 += cells[(k+3)*card+int(sax[k+3])&mask]
	}
	return (l0 + l1) + (l2 + l3)
}

// ScalarMinDistBatch is the oracle form of MinDistBatch: the w == 16 case
// runs the per-entry lookup oracle, every other width the shared
// sequential loop.
func ScalarMinDistBatch(cells []float64, sax []uint8, w, card int, out []float64) {
	if w == 16 {
		for i := range out {
			out[i] = scalarMinDistLookup16(cells, sax[i*16:i*16+16], card)
		}
		return
	}
	for i := range out {
		var acc float64
		row := sax[i*w : (i+1)*w]
		for j, s := range row {
			acc += cells[j*card+int(s)]
		}
		out[i] = acc
	}
}
