package blas

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"multifloats/internal/campary"
	"multifloats/internal/qd"
	"multifloats/mf"
)

func refDot(x, y []float64) *big.Float {
	acc := new(big.Float).SetPrec(600)
	tmp := new(big.Float).SetPrec(600)
	tx := new(big.Float)
	ty := new(big.Float)
	for i := range x {
		tmp.Mul(tx.SetFloat64(x[i]), ty.SetFloat64(y[i]))
		acc.Add(acc, tmp)
	}
	return acc
}

func TestDotAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(40)-20)
		ys[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(40)-20)
	}
	want := refDot(xs, ys)

	check := func(name string, got *big.Float, minBits float64) {
		diff := new(big.Float).SetPrec(600).Sub(want, got)
		if diff.Sign() == 0 {
			return
		}
		rel := new(big.Float).Quo(diff.Abs(diff), new(big.Float).Abs(want))
		f, _ := rel.Float64()
		if -math.Log2(f) < minBits {
			t.Errorf("%s: dot accurate to only 2^-%.1f (want 2^-%g)", name, -math.Log2(f), minBits)
		}
	}

	// MultiFloats at three precisions.
	{
		x2 := make([]mf.Float64x2, n)
		y2 := make([]mf.Float64x2, n)
		x4 := make([]mf.Float64x4, n)
		y4 := make([]mf.Float64x4, n)
		for i := range xs {
			x2[i], y2[i] = mf.New2(xs[i]), mf.New2(ys[i])
			x4[i], y4[i] = mf.New4(xs[i]), mf.New4(ys[i])
		}
		d2 := Dot(mf.Float64x2{}, x2, y2)
		check("mf2", d2.Big(), 90)
		d4 := Dot(mf.Float64x4{}, x4, y4)
		check("mf4", d4.Big(), 190)
		// Parallel reduction must match expectations too.
		d4p := DotParallel(mf.Float64x4{}, x4, y4, 4)
		check("mf4-parallel", d4p.Big(), 190)
	}
	// QD.
	{
		xq := make([]qd.DD, n)
		yq := make([]qd.DD, n)
		for i := range xs {
			xq[i], yq[i] = qd.FromFloat(xs[i]), qd.FromFloat(ys[i])
		}
		d := Dot(qd.DD{}, xq, yq)
		acc := new(big.Float).SetPrec(600).SetFloat64(d.Hi)
		acc.Add(acc, new(big.Float).SetFloat64(d.Lo))
		check("qd-dd", acc, 90)
	}
	// CAMPARY.
	{
		xc := make([]campary.Expansion, n)
		yc := make([]campary.Expansion, n)
		for i := range xs {
			xc[i] = campary.FromFloat(xs[i], 3)
			yc[i] = campary.FromFloat(ys[i], 3)
		}
		d := Dot(campary.FromFloat(0, 3), xc, yc)
		acc := new(big.Float).SetPrec(600)
		tmp := new(big.Float)
		for _, v := range d {
			acc.Add(acc, tmp.SetFloat64(v))
		}
		check("campary3", acc, 140)
	}
	// mpfloat and big.Float adapters.
	{
		xm := make([]MP, n)
		ym := make([]MP, n)
		xb := make([]BF, n)
		yb := make([]BF, n)
		for i := range xs {
			xm[i], ym[i] = MPFromFloat(xs[i], 156), MPFromFloat(ys[i], 156)
			xb[i], yb[i] = BFFromFloat(xs[i], 156), BFFromFloat(ys[i], 156)
		}
		dm := Dot(MPFromFloat(0, 156), xm, ym)
		check("mpfloat156", dm.V.Big(), 140)
		db := Dot(BFFromFloat(0, 156), xb, yb)
		check("bigfloat156", db.V, 140)
	}
	// Native float64 sanity.
	{
		d := DotNative(xs, ys, 1)
		check("native", new(big.Float).SetPrec(600).SetFloat64(d), 30)
	}
}

func TestAxpySerialParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1000
	alpha := mf.New3(1.25)
	x := make([]mf.Float64x3, n)
	y1 := make([]mf.Float64x3, n)
	y2 := make([]mf.Float64x3, n)
	for i := range x {
		x[i] = mf.New3(rng.NormFloat64())
		y1[i] = mf.New3(rng.NormFloat64())
		y2[i] = y1[i]
	}
	Axpy(alpha, x, y1)
	AxpyParallel(alpha, x, y2, 8)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("axpy parallel mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestGemvMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 17, 23
	a := make([]mf.Float64x2, n*m)
	x := make([]mf.Float64x2, m)
	for i := range a {
		a[i] = mf.New2(rng.NormFloat64())
	}
	for j := range x {
		x[j] = mf.New2(rng.NormFloat64())
	}
	y := make([]mf.Float64x2, n)
	Gemv(mf.Float64x2{}, a, n, m, x, y)
	for i := 0; i < n; i++ {
		want := Dot(mf.Float64x2{}, a[i*m:(i+1)*m], x)
		if y[i] != want {
			t.Fatalf("gemv row %d: %v vs dot %v", i, y[i], want)
		}
	}
	// Parallel agrees.
	yp := make([]mf.Float64x2, n)
	GemvParallel(mf.Float64x2{}, a, n, m, x, yp, 4)
	for i := range y {
		if y[i] != yp[i] {
			t.Fatalf("gemv parallel mismatch at %d", i)
		}
	}
}

func TestGemmSmallExact(t *testing.T) {
	// 2×2 integer case, exact in every arithmetic.
	a := []mf.Float64x4{mf.New4(1.0), mf.New4(2.0), mf.New4(3.0), mf.New4(4.0)}
	b := []mf.Float64x4{mf.New4(5.0), mf.New4(6.0), mf.New4(7.0), mf.New4(8.0)}
	c := make([]mf.Float64x4, 4)
	Gemm(a, b, c, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i].Float() != want[i] || c[i][1] != 0 {
			t.Fatalf("gemm c[%d] = %v, want %g", i, c[i], want[i])
		}
	}
	// Parallel path on a larger matrix agrees with serial.
	rng := rand.New(rand.NewSource(4))
	n := 20
	a2 := make([]mf.Float64x2, n*n)
	b2 := make([]mf.Float64x2, n*n)
	c1 := make([]mf.Float64x2, n*n)
	c2 := make([]mf.Float64x2, n*n)
	for i := range a2 {
		a2[i] = mf.New2(rng.NormFloat64())
		b2[i] = mf.New2(rng.NormFloat64())
	}
	Gemm(a2, b2, c1, n)
	GemmParallel(a2, b2, c2, n, 4)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("gemm parallel mismatch at %d", i)
		}
	}
}

func TestDotIllConditioned(t *testing.T) {
	// A dot product that cancels catastrophically in float64 but is exact
	// in 2-term arithmetic: the paper's headline use case.
	x := []float64{1e16, 1, -1e16}
	y := []float64{1, 0x1p-30, 1}
	// Exact: 1e16·1 + 2^-30 - 1e16·1 = 2^-30.
	dn := DotNative(x, y, 1)
	x2 := []mf.Float64x2{mf.New2(x[0]), mf.New2(x[1]), mf.New2(x[2])}
	y2 := []mf.Float64x2{mf.New2(y[0]), mf.New2(y[1]), mf.New2(y[2])}
	d2 := Dot(mf.Float64x2{}, x2, y2)
	if dn == 0x1p-30 {
		t.Skip("float64 got lucky")
	}
	if d2.Float() != 0x1p-30 {
		t.Errorf("mf2 dot = %v, want 2^-30", d2)
	}
}
