package vector

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestImplAndForceScalar(t *testing.T) {
	defer ForceScalar(false)
	ForceScalar(false)
	switch Detected() {
	case "avx2":
		if !hasAsm {
			t.Fatal("Detected()=avx2 on a build without the assembly layer")
		}
		if Impl() != "avx2" {
			t.Fatalf("Impl()=%q with AVX2 detected and ForceScalar off", Impl())
		}
	case "none":
		if Impl() != "scalar" {
			t.Fatalf("Impl()=%q with no SIMD detected", Impl())
		}
	default:
		t.Fatalf("Detected()=%q, want avx2 or none", Detected())
	}
	ForceScalar(true)
	if Impl() != "scalar" {
		t.Fatalf("Impl()=%q under ForceScalar(true)", Impl())
	}
	ForceScalar(false)
	if Detected() == "avx2" && Impl() != "avx2" {
		t.Fatalf("Impl()=%q after ForceScalar(false) on an AVX2 machine", Impl())
	}
}

// TestDetectionRunsOnce pins that CPU feature detection happened exactly
// once, at package init, and that concurrent kernel calls racing against
// ForceScalar toggles neither re-run it nor trip the race detector.
func TestDetectionRunsOnce(t *testing.T) {
	defer ForceScalar(false)
	if hasAsm {
		if got := detectRuns(); got != 1 {
			t.Fatalf("detection ran %d times, want exactly 1", got)
		}
	} else if got := detectRuns(); got != 0 {
		t.Fatalf("detection ran %d times on a build without the assembly layer", got)
	}

	rng := rand.New(rand.NewSource(21))
	a, b := randVec(rng, 128), randVec(rng, 128)
	want := ScalarSquaredED(a, b)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g == 0 {
					ForceScalar(i%2 == 0)
				}
				if got := SquaredED(a, b); got != want {
					t.Errorf("concurrent SquaredED=%v, want %v", got, want)
					return
				}
				_ = Impl()
			}
		}(g)
	}
	wg.Wait()

	if hasAsm {
		if got := detectRuns(); got != 1 {
			t.Fatalf("detection re-ran under concurrency: %d runs", got)
		}
	}
}

// TestSIMDKernelsBeatTheScalarOracle pins the assembly layer's reason to
// exist: on an AVX2 machine each dispatched kernel must outrun the scalar
// oracle it is bit-identical to. Shapes follow the production defaults
// (256-point series; w=16 summaries at cardinality 256). The floors are
// loose against the measured ~4x (ED) and ~2x (MinDistBatch) so that a
// loaded machine does not trip them, while dispatch that silently falls
// back to the scalar path (speedup ~1x) does.
func TestSIMDKernelsBeatTheScalarOracle(t *testing.T) {
	if Detected() != "avx2" {
		t.Skipf("no AVX2 here (Detected()=%q): the scalar oracle is the production path, nothing to outrun", Detected())
	}
	defer ForceScalar(false)
	const n, pairs, batch, card = 256, 64, 1024, 256
	rng := rand.New(rand.NewSource(10))
	a := make([][]float32, pairs)
	b := make([][]float32, pairs)
	for i := range a {
		a[i], b[i] = randVec(rng, n), randVec(rng, n)
	}
	cells := make([]float64, 16*card)
	for i := range cells {
		cells[i] = rng.Float64()
	}
	sax := make([]uint8, batch*16)
	for i := range sax {
		sax[i] = uint8(rng.Intn(card))
	}
	bounds := make([]float64, batch)

	var sink float64
	inf := math.Inf(1)
	kernels := []struct {
		name string
		pass func()
	}{
		{"SquaredED", func() {
			for i := range a {
				sink += SquaredED(a[i], b[i])
			}
		}},
		// An infinite limit never abandons: the full-length worst case.
		{"SquaredEDEarlyAbandon", func() {
			for i := range a {
				sink += SquaredEDEarlyAbandon(a[i], b[i], inf)
			}
		}},
		{"MinDistBatch", func() { MinDistBatch(cells, sax, 16, card, bounds) }},
	}
	speedup := make(map[string]float64, len(kernels))
	for _, k := range kernels {
		nsPerPass := func(scalar bool) float64 {
			ForceScalar(scalar)
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.pass()
				}
			})
			return float64(r.T.Nanoseconds()) / float64(r.N)
		}
		simd := nsPerPass(false)
		scalar := nsPerPass(true)
		speedup[k.name] = scalar / simd
		t.Logf("%s: simd %.0f ns, scalar %.0f ns per pass: %.2fx", k.name, simd, scalar, speedup[k.name])
	}
	ForceScalar(false)
	if sink == 0 {
		t.Fatal("distance sink is zero: the kernels did no work")
	}
	if ed := min(speedup["SquaredED"], speedup["SquaredEDEarlyAbandon"]); ed < 1.2 {
		t.Errorf("smallest ED-kernel speedup %.2fx, want >= 1.2x: the assembly kernels are not beating the scalar oracle", ed)
	}
	if md := speedup["MinDistBatch"]; md < 1.0 {
		t.Errorf("MinDistBatch speedup %.2fx, want >= 1.0x: the gather kernel is slower than the scalar lookup loop", md)
	}
}
