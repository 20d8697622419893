package blas

// Micro-benchmarks behind EXPERIMENTS.md §E-SoA: the AoS-vs-SoA layout
// comparison for the elementwise slab kernels, the unroll-factor sweep
// that fixed LaneWidth, and the gather/scatter (transpose) cost the
// serving tier pays to assemble SoA slabs from wire-format operands.

import (
	"fmt"
	"math/rand"
	"testing"

	"multifloats/internal/core"
)

const benchSlab = 4096

func benchPlanes(n int) (x, y, z SoA) {
	rng := rand.New(rand.NewSource(9))
	for j := 0; j < n; j++ {
		x[j] = make([]float64, benchSlab)
		y[j] = make([]float64, benchSlab)
		z[j] = make([]float64, benchSlab)
	}
	for i := 0; i < benchSlab; i++ {
		x[0][i], y[0][i] = rng.NormFloat64(), rng.NormFloat64()
		for j := 1; j < n; j++ {
			x[j][i] = x[j-1][i] * 0x1p-53
			y[j][i] = y[j-1][i] * 0x1p-53
		}
	}
	return x, y, z
}

// interleave flattens SoA planes into the wire-format AoS slab
// (component j of element i at [i*n+j]).
func interleave(s *SoA, n int) []float64 {
	out := make([]float64, benchSlab*n)
	for j := 0; j < n; j++ {
		for i, v := range s[j] {
			out[i*n+j] = v
		}
	}
	return out
}

// aosMul is the shape of the retired per-element executor: interleaved
// operand slabs, one scalar core call per element.
func aosMul(n int, x, y, z []float64) {
	switch n {
	case 2:
		for i := 0; i < len(x); i += 2 {
			z[i], z[i+1] = core.Mul2(x[i], x[i+1], y[i], y[i+1])
		}
	case 3:
		for i := 0; i < len(x); i += 3 {
			z[i], z[i+1], z[i+2] = core.Mul3(x[i], x[i+1], x[i+2], y[i], y[i+1], y[i+2])
		}
	case 4:
		for i := 0; i < len(x); i += 4 {
			z[i], z[i+1], z[i+2], z[i+3] = core.Mul4(x[i], x[i+1], x[i+2], x[i+3], y[i], y[i+1], y[i+2], y[i+3])
		}
	}
}

// BenchmarkLaneAoSvsSoA compares, per width: the retired AoS per-element
// loop, the bare SoA lane kernel, and the SoA kernel including the
// gather/scatter the server pays to move between wire format and planes.
// ns/op is per slab of benchSlab elements.
func BenchmarkLaneAoSvsSoA(b *testing.B) {
	for n := 2; n <= 4; n++ {
		x, y, z := benchPlanes(n)
		xa, ya := interleave(&x, n), interleave(&y, n)
		za := make([]float64, benchSlab*n)
		kern := LaneKernel(LaneOpMul, n)
		b.Run(fmt.Sprintf("aos-mul%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aosMul(n, xa, ya, za)
			}
		})
		b.Run(fmt.Sprintf("soa-mul%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kern(&x, &y, &z, 0, benchSlab)
			}
		})
		b.Run(fmt.Sprintf("soa-mul%d-with-transpose", n), func(b *testing.B) {
			var gx, gy SoA
			for j := 0; j < n; j++ {
				gx[j] = make([]float64, benchSlab)
				gy[j] = make([]float64, benchSlab)
			}
			for i := 0; i < b.N; i++ {
				gatherBench(&gx, n, xa)
				gatherBench(&gy, n, ya)
				kern(&gx, &gy, &z, 0, benchSlab)
				scatterBench(za, n, &z)
			}
		})
	}
}

// gatherBench/scatterBench mirror the server's gatherSoA/scatterSoA
// (serve/server/lane.go) so the transpose-cost figure reflects the real
// deinterleave loops.
func gatherBench(dst *SoA, w int, src []float64) {
	n := len(src) / w
	for j := 0; j < w; j++ {
		p := dst[j][:n]
		for i := range p {
			p[i] = src[i*w+j]
		}
	}
}

func scatterBench(dst []float64, w int, src *SoA) {
	for j := 0; j < w; j++ {
		for i, v := range src[j] {
			dst[i*w+j] = v
		}
	}
}
