package blas

import (
	"math/big"

	"multifloats/internal/mpfloat"
)

// MP adapts internal/mpfloat's pointer API to the value-semantics Arith
// contract. Every operation allocates a fresh result, which is the honest
// cost profile of limb-based multiprecision libraries in inner loops.
type MP struct {
	V *mpfloat.Float
}

// MPFromFloat returns an MP of the given precision holding x.
func MPFromFloat(x float64, prec uint) MP {
	return MP{mpfloat.New(prec).SetFloat64(x)}
}

// Add returns a + b.
func (a MP) Add(b MP) MP {
	return MP{mpfloat.New(a.V.Prec()).Add(a.V, b.V)}
}

// Mul returns a · b.
func (a MP) Mul(b MP) MP {
	return MP{mpfloat.New(a.V.Prec()).Mul(a.V, b.V)}
}

// BF adapts math/big.Float (the Boost.Multiprecision stand-in; also an
// independent second software-FPU baseline).
type BF struct {
	V *big.Float
}

// BFFromFloat returns a BF of the given precision holding x.
func BFFromFloat(x float64, prec uint) BF {
	return BF{new(big.Float).SetPrec(prec).SetFloat64(x)}
}

// Add returns a + b.
func (a BF) Add(b BF) BF {
	return BF{new(big.Float).SetPrec(a.V.Prec()).Add(a.V, b.V)}
}

// Mul returns a · b.
func (a BF) Mul(b BF) BF {
	return BF{new(big.Float).SetPrec(a.V.Prec()).Mul(a.V, b.V)}
}
