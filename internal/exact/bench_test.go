package exact_test

import (
	"fmt"
	"math/rand"
	"testing"

	"multifloats/internal/exact"
)

// BenchmarkFold times AddValues and AddDotSlab at widths 1–4 on slabs
// of 4096 and 8192 elements, the server's shard and streamed-chunk
// sizes, and reports ns per element (one width-w expansion summed, or
// one pair multiplied) and allocations per fold. Each fold starts from
// an empty accumulator, as mfledger's traced exact.* rows do.
//
//	go test ./internal/exact -run '^$' -bench Fold -count 5
func BenchmarkFold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4096, 8192} {
		for w := 1; w <= 4; w++ {
			x, y := foldSlab(rng, n, w), foldSlab(rng, n, w)
			var a exact.Accumulator
			b.Run(fmt.Sprintf("sum/w=%d/n=%d", w, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a.Reset()
					a.AddValues(x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
			b.Run(fmt.Sprintf("dot/w=%d/n=%d", w, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a.Reset()
					a.AddDotSlab(w, x, y)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			})
		}
	}
}

// foldSlab returns n width-w expansions shaped like mfledger's
// reduce-stream operands: a leading component uniform in ±[0, 1000),
// each later one 2^-55 to 2^-54 of the one before, signs at random.
func foldSlab(rng *rand.Rand, n, w int) []float64 {
	s := make([]float64, n*w)
	for i := 0; i < n; i++ {
		v := 1000 * rng.Float64()
		for k := 0; k < w; k++ {
			if rng.Intn(2) == 0 {
				v = -v
			}
			s[i*w+k] = v
			v *= 0x1p-54 * (0.5 + rng.Float64()/2)
		}
	}
	return s
}
