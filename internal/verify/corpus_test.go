package verify

import (
	"testing"

	"multifloats/internal/fpan"
)

// Golden corpus: the hardest inputs discovered during the development of
// the production networks, kept as regressions. Each of these broke at
// least one earlier candidate network (see EXPERIMENTS.md E-Fig2..7 and
// the git-visible discussion in DESIGN.md §4):
//
//   - deep partial cancellation with live tails (sank the VecSum-only
//     add4 family at 2^-170 and the first sorting-network add4 at 2^-188);
//   - values stranded one position outside the output window (the
//     "bubble-up" failure of pure U-pass renormalization);
//   - exact half-ulp and 2·ulp boundary packing;
//   - near-total cancellation leaving only rounding dust.
var goldenAdd = []struct {
	name string
	n    int
	in   []float64
}{
	{"add4-vecsum-bound-killer", 4, []float64{
		-2.2458432240178362e-27, 2.2458432240178362e-27,
		-8.968310171678828e-44, 8.96831017167883e-44,
		7.418412301374842e-68, 1.9446922743316066e-62,
		2.9962728670030063e-95, 1.6919697714829923e-79}},
	{"add4-stranded-residue", 4, []float64{
		2.9931553532536898e+51, -2.9931553532536892e+51,
		-6.6461399789245794e+35, -17179869184,
		-2.305843009213694e+18, -5.9434577628417501e-09,
		-0.00066498381995658122, -5.9380546535288952e-25}},
	{"add4-bubble-up", 4, []float64{
		2.1267647932558659e+37, -2.1267647932558654e+37,
		-4.7223664828696452e+21, -127.99999999999999,
		262143.99999999997, 7.1054273576010034e-15,
		-1.13686837721616e-13, -6.3213851992511283e-33}},
	{"add4-sortnet-188", 4, []float64{
		7.8463771692333527e+56, 3.9231885846166763e+56,
		1.7422457186352049e+41, 8.7112285931760247e+40,
		-1.4160310108744356e+25, -7.0801550543721779e+24,
		2147483647.9999998, -1073741823.9999999}},
	{"add3-exponent-islands", 3, []float64{
		-2.051620461831784e+29, 2.487765606855175e-06,
		-1.7592186044416e+13, -5.293955920339378e-23,
		-0.001953125, 5.877471754111438e-39}},
	{"add2-half-ulp-tie", 2, []float64{
		1, -(1 - 0x1p-53), 0x1p-53, -0x1p-54}},
	{"add2-jmp-worst-family", 2, []float64{
		1, -0.5 - 0x1p-54, 0x1p-54, 0x1p-55}},
	{"add4-total-cancel-dust", 4, []float64{
		6.797173473884789e+29, -6.797173473884789e+29,
		0, 7.745183829698637e-121,
		0, -8.413418268316652e-138,
		0, 0}},
}

func TestGoldenCorpusAdd(t *testing.T) {
	nets := map[int]*fpan.Network{2: fpan.Add2(), 3: fpan.Add3(), 4: fpan.Add4()}
	for _, g := range goldenAdd {
		rep := newReport(g.name)
		rep.check(nets[g.n], g.in, exactSum(g.in))
		if rep.Failed() {
			t.Errorf("%v", rep)
		}
	}
}

// Mul regressions: the weak-invariant boundary cases that set the library
// bounds (networks.go).
var goldenMul = []struct {
	name string
	n    int
	x, y []float64
}{
	{"mul2-weak-boundary", 2,
		[]float64{-4.484155085839417e-44 / 9.956824444577827e-60, 0}, // reconstructed scale pattern
		[]float64{-9.956824444577827e-60 * 1e10, 0}},
	{"mul2-dropped-term-worst", 2,
		[]float64{1, 0x1p-51}, // weak-boundary tail: 2·ulp(1)
		[]float64{1, -0x1p-51}},
	{"mul3-subnormal-scale", 3,
		[]float64{-3.725290298461916e-09, -8.271806125530279e-25, 0},
		[]float64{1.0000000001, 0x1p-53, 0}},
	{"mul4-boundary-tails", 4,
		[]float64{-1.7592186044416008e+13, 0.003906250000000001, 0, 0},
		[]float64{1.0000000000001, -0x1p-52, 0x1p-105, 0}},
}

func TestGoldenCorpusMul(t *testing.T) {
	nets := map[int]*fpan.Network{2: fpan.Mul2(), 3: fpan.Mul3(), 4: fpan.Mul4()}
	gen := NewExpansionGen(1)
	for _, g := range goldenMul {
		net := nets[g.n]
		// Repair any accidental overlap in the handwritten operands.
		x := gen.renorm(append([]float64(nil), g.x...))
		y := gen.renorm(append([]float64(nil), g.y...))
		rep := newReport(g.name)
		rep.check(net, fpan.MulInputs(g.n, x, y), exactProduct(x, y))
		if rep.Failed() {
			t.Errorf("%v", rep)
		}
	}
}
