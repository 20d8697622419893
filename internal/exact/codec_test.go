package exact

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func eqBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCodecRoundTrip: decode(encode(a)) folds down bit-identically to a,
// across sign mixes, subnormals, huge/tiny magnitudes, products, and
// special values — and encoding does not disturb the source accumulator.
func TestCodecRoundTrip(t *testing.T) {
	for fi, f := range codecFills(rand.New(rand.NewSource(41))) {
		var a Accumulator
		f(&a)
		before := a
		words := a.EncodeFloats()
		if a != before {
			t.Fatalf("fill %d: EncodeFloats modified the accumulator", fi)
		}
		got, err := DecodeFloats(words)
		if err != nil {
			t.Fatalf("fill %d: DecodeFloats: %v", fi, err)
		}
		if !eqBits(got.Sum(), a.Sum()) {
			t.Fatalf("fill %d: decoded Sum %x, want %x", fi, got.Sum(), a.Sum())
		}
		for w := 1; w <= 4; w++ {
			ge, we := got.SumExpansion(w), a.SumExpansion(w)
			for k := range we {
				if !eqBits(ge[k], we[k]) {
					t.Fatalf("fill %d: decoded SumExpansion(%d)[%d] = %x, want %x", fi, w, k, ge[k], we[k])
				}
			}
		}
	}
}

// codecFills are the accumulator states the codec tests encode: sign
// mixes, subnormals, huge/tiny magnitudes, products, and special values.
func codecFills(rng *rand.Rand) []func(a *Accumulator) {
	return []func(a *Accumulator){
		func(a *Accumulator) {},
		func(a *Accumulator) { a.Add(1); a.Add(-1); a.Add(0x1p-1074) },
		func(a *Accumulator) {
			for i := 0; i < 500; i++ {
				a.Add((rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(600)-300))
			}
		},
		func(a *Accumulator) {
			for i := 0; i < 200; i++ {
				a.AddProduct(math.Ldexp(rng.Float64(), -rng.Intn(1074)), math.Ldexp(-rng.Float64(), -rng.Intn(1074)))
			}
		},
		func(a *Accumulator) { a.Add(-0x1.fffffffffffffp1023); a.Add(-0x1p970) },
		func(a *Accumulator) { a.Add(math.Inf(1)); a.Add(3) },
		func(a *Accumulator) { a.Add(math.Inf(-1)) },
		func(a *Accumulator) { a.Add(math.NaN()) },
		func(a *Accumulator) { a.Add(math.Inf(1)); a.Add(math.Inf(-1)) },
	}
}

// TestCodecWordsAreOrdinary pins the transport-safety property: every
// encoded word's bit pattern is below 2^32, i.e. a positive subnormal
// or zero — never NaN/Inf, never sign-bit-carrying — so no wire or
// canonicalization layer can confuse one for a special value.
func TestCodecWordsAreOrdinary(t *testing.T) {
	var a Accumulator
	a.Add(math.NaN())
	a.Add(-0x1.23456789abcdfp-300)
	for i := 0; i < 100; i++ {
		a.AddProduct(-3.5e200, 2.5e200)
	}
	for i, w := range a.EncodeFloats() {
		if b := math.Float64bits(w); b >= 1<<32 {
			t.Fatalf("word %d has bit pattern %#x ≥ 2^32", i, b)
		}
	}
}

// TestCodecShardMerge is the cluster-tier contract: accumulate a stream
// in shards, encode each shard, decode and Merge at a coordinator, and
// the fold-down is bit-identical to one sequential accumulation.
func TestCodecShardMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(700)-350)
	}
	var whole Accumulator
	whole.AddValues(xs)
	for _, shards := range []int{1, 2, 3, 7} {
		var merged Accumulator
		for s := 0; s < shards; s++ {
			var part Accumulator
			for i := s; i < len(xs); i += shards {
				part.Add(xs[i])
			}
			dec, err := DecodeFloats(part.EncodeFloats())
			if err != nil {
				t.Fatalf("shards=%d: decode: %v", shards, err)
			}
			merged.Merge(dec)
		}
		for _, w := range []int{1, 2, 4} {
			ge, we := merged.SumExpansion(w), whole.SumExpansion(w)
			for k := range we {
				if !eqBits(ge[k], we[k]) {
					t.Fatalf("shards=%d w=%d: component %d = %x, want %x", shards, w, k, ge[k], we[k])
				}
			}
		}
	}
}

// TestDecodeFloatsHostile: shape and range violations must be rejected.
func TestDecodeFloatsHostile(t *testing.T) {
	good := new(Accumulator).EncodeFloats()
	cases := map[string]func([]float64){
		"bin-too-wide":   func(w []float64) { w[5] = math.Float64frombits(1 << 32) },
		"bin-negative":   func(w []float64) { w[0] = math.Copysign(0, -1) },
		"bin-nan":        func(w []float64) { w[17] = math.NaN() },
		"bin-normal":     func(w []float64) { w[130] = 1.0 },
		"top-lo-wide":    func(w []float64) { w[binCount] = math.Float64frombits(1 << 33) },
		"top-hi-wide":    func(w []float64) { w[binCount+1] = math.Float64frombits(math.MaxUint64) },
		"flags-too-wide": func(w []float64) { w[binCount+2] = math.Float64frombits(8) },
	}
	for name, doctor := range cases {
		w := append([]float64(nil), good...)
		doctor(w)
		if _, err := DecodeFloats(w); err == nil {
			t.Errorf("%s: decoded a hostile slab", name)
		}
	}
	if _, err := DecodeFloats(good[:EncodedWords-1]); err == nil {
		t.Error("short slab decoded")
	}
	if _, err := DecodeFloats(append(append([]float64(nil), good...), 0)); err == nil {
		t.Error("long slab decoded")
	}
}

// FuzzDecodeFloats feeds DecodeFloats arbitrary words (the input bytes
// read as little-endian uint64 bit patterns, the form a raw-final
// reduction response carries them in). Every slab it accepts must
// re-encode identically — the encoding has one form per state — and
// fold down without panicking.
func FuzzDecodeFloats(f *testing.F) {
	for _, fill := range codecFills(rand.New(rand.NewSource(41))) {
		var a Accumulator
		fill(&a)
		var b []byte
		for _, w := range a.EncodeFloats() {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		words := make([]float64, len(b)/8)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		a, err := DecodeFloats(words)
		if err != nil {
			return
		}
		for i, w := range a.EncodeFloats() {
			if !eqBits(w, words[i]) {
				t.Fatalf("word %d re-encodes as %#x, decoded from %#x", i, math.Float64bits(w), math.Float64bits(words[i]))
			}
		}
		a.Sum()
		for w := 1; w <= 4; w++ {
			a.SumExpansion(w)
		}
	})
}
