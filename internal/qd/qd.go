package qd

import (
	"math"

	"multifloats/internal/eft"
)

// QD is a quad-double value: an unevaluated, decreasing, nonoverlapping
// sum of four float64 components, as in the QD library.
type QD [4]float64

func sqrt64(x float64) float64 { return math.Sqrt(x) }

// QDFromFloat returns the QD representation of a float64.
func QDFromFloat(x float64) QD { return QD{x, 0, 0, 0} }

// QDFromDD widens a double-double value.
func QDFromDD(a DD) QD { return QD{a.Hi, a.Lo, 0, 0} }

// Float returns the closest float64.
func (a QD) Float() float64 { return a[0] }

// renorm5 is QD's five-input renormalization, with the original
// data-dependent branch cascade (qd_inline.h).
func renorm5(c0, c1, c2, c3, c4 float64) (float64, float64, float64, float64) {
	var s0, s1, s2, s3 float64
	if math.IsInf(c0, 0) {
		return c0, c1, c2, c3
	}
	s0, c4 = eft.FastTwoSum(c3, c4)
	s0, c3 = eft.FastTwoSum(c2, s0)
	s0, c2 = eft.FastTwoSum(c1, s0)
	c0, c1 = eft.FastTwoSum(c0, s0)

	s0, s1 = c0, c1
	if s1 != 0 {
		s1, s2 = eft.FastTwoSum(s1, c2)
		if s2 != 0 {
			s2, s3 = eft.FastTwoSum(s2, c3)
			if s3 != 0 {
				s3 += c4
			} else {
				s2 += c4
			}
		} else {
			s1, s2 = eft.FastTwoSum(s1, c3)
			if s2 != 0 {
				s2, s3 = eft.FastTwoSum(s2, c4)
			} else {
				s1, s2 = eft.FastTwoSum(s1, c4)
			}
		}
	} else {
		s0, s1 = eft.FastTwoSum(s0, c2)
		if s1 != 0 {
			s1, s2 = eft.FastTwoSum(s1, c3)
			if s2 != 0 {
				s2, s3 = eft.FastTwoSum(s2, c4)
			} else {
				s1, s2 = eft.FastTwoSum(s1, c4)
			}
		} else {
			s0, s1 = eft.FastTwoSum(s0, c3)
			if s1 != 0 {
				s1, s2 = eft.FastTwoSum(s1, c4)
			} else {
				s0, s1 = eft.FastTwoSum(s0, c4)
			}
		}
	}
	return s0, s1, s2, s3
}

// renorm4 is the four-input variant.
func renorm4(c0, c1, c2, c3 float64) (float64, float64, float64, float64) {
	var s0, s1, s2, s3 float64
	if math.IsInf(c0, 0) {
		return c0, c1, c2, c3
	}
	s0, c3 = eft.FastTwoSum(c2, c3)
	s0, c2 = eft.FastTwoSum(c1, s0)
	c0, c1 = eft.FastTwoSum(c0, s0)

	s0, s1 = c0, c1
	if s1 != 0 {
		s1, s2 = eft.FastTwoSum(s1, c2)
		if s2 != 0 {
			s2, s3 = eft.FastTwoSum(s2, c3)
		} else {
			s1, s2 = eft.FastTwoSum(s1, c3)
		}
	} else {
		s0, s1 = eft.FastTwoSum(s0, c2)
		if s1 != 0 {
			s1, s2 = eft.FastTwoSum(s1, c3)
		} else {
			s0, s1 = eft.FastTwoSum(s0, c3)
		}
	}
	return s0, s1, s2, s3
}

// quickThreeAccum is QD's branching three-way accumulator.
func quickThreeAccum(a, b, c float64) (s, a2, b2 float64) {
	s, b = eft.TwoSum(b, c)
	s, a = eft.TwoSum(a, s)
	za := a != 0
	zb := b != 0
	if za && zb {
		return s, a, b
	}
	if !zb {
		return 0, s, a
	}
	return 0, s, b
}

// Add returns a + b using QD's accurate ("IEEE") addition: a branching
// merge of the eight components by decreasing magnitude followed by
// branching accumulation and renormalization.
func (a QD) Add(b QD) QD {
	var x [4]float64
	i, j, k := 0, 0, 0
	var u, v float64
	if math.Abs(a[i]) > math.Abs(b[j]) {
		u = a[i]
		i++
	} else {
		u = b[j]
		j++
	}
	if i < 4 && (j >= 4 || math.Abs(a[i]) > math.Abs(b[j])) {
		v = a[i]
		i++
	} else {
		v = b[j]
		j++
	}
	u, v = eft.FastTwoSum(u, v)
	for k < 4 {
		if i >= 4 && j >= 4 {
			x[k] = u
			if k < 3 {
				k++
				x[k] = v
			}
			break
		}
		var t float64
		switch {
		case i >= 4:
			t = b[j]
			j++
		case j >= 4:
			t = a[i]
			i++
		case math.Abs(a[i]) > math.Abs(b[j]):
			t = a[i]
			i++
		default:
			t = b[j]
			j++
		}
		var s float64
		s, u, v = quickThreeAccum(u, v, t)
		if s != 0 {
			x[k] = s
			k++
		}
	}
	// Add remaining components into the last place.
	for ; i < 4; i++ {
		x[3] += a[i]
	}
	for ; j < 4; j++ {
		x[3] += b[j]
	}
	x[0], x[1], x[2], x[3] = renorm4(x[0], x[1], x[2], x[3])
	return QD(x)
}

// AddSloppy is QD's faster, cancellation-unsafe addition.
func (a QD) AddSloppy(b QD) QD {
	s0, t0 := eft.TwoSum(a[0], b[0])
	s1, t1 := eft.TwoSum(a[1], b[1])
	s2, t2 := eft.TwoSum(a[2], b[2])
	s3, t3 := eft.TwoSum(a[3], b[3])
	s1, t0 = eft.TwoSum(s1, t0)
	s2, t0, t1 = threeSum(s2, t0, t1)
	s3, t0 = threeSum2(s3, t0, t2)
	t0 = t0 + t1 + t3
	z0, z1, z2, z3 := renorm5(s0, s1, s2, s3, t0)
	return QD{z0, z1, z2, z3}
}

// threeSum computes the three-term sum returning three components.
func threeSum(a, b, c float64) (r0, r1, r2 float64) {
	t1, t2 := eft.TwoSum(a, b)
	r0, t3 := eft.TwoSum(c, t1)
	r1, r2 = eft.TwoSum(t2, t3)
	return
}

// threeSum2 computes the three-term sum returning two components.
func threeSum2(a, b, c float64) (r0, r1 float64) {
	t1, t2 := eft.TwoSum(a, b)
	r0, t3 := eft.TwoSum(c, t1)
	r1 = t2 + t3
	return
}

// Sub returns a - b.
func (a QD) Sub(b QD) QD {
	return a.Add(QD{-b[0], -b[1], -b[2], -b[3]})
}

// Neg returns -a.
func (a QD) Neg() QD { return QD{-a[0], -a[1], -a[2], -a[3]} }

// Mul returns a · b using QD's accurate multiplication: all significant
// TwoProd partial products accumulated by scale with three-sums, then a
// branching renormalization.
func (a QD) Mul(b QD) QD {
	p0, q0 := eft.TwoProd(a[0], b[0])
	p1, q1 := eft.TwoProd(a[0], b[1])
	p2, q2 := eft.TwoProd(a[1], b[0])
	p3, q3 := eft.TwoProd(a[0], b[2])
	p4, q4 := eft.TwoProd(a[1], b[1])
	p5, q5 := eft.TwoProd(a[2], b[0])

	// Start accumulation (three_sum(p1, p2, q0)).
	p1, p2, q0 = threeSum(p1, p2, q0)

	// Six-three-sum of p2, q1, q2, p3, p4, p5.
	p2, q1, q2 = threeSum(p2, q1, q2)
	p3, p4, p5 = threeSum(p3, p4, p5)
	// (s0, s1, s2) = (p2, q1, q2) + (p3, p4, p5).
	s0, t0 := eft.TwoSum(p2, p3)
	s1, t1 := eft.TwoSum(q1, p4)
	s2 := q2 + p5
	s1, t0 = eft.TwoSum(s1, t0)
	s2 += t0 + t1

	// O(eps^3) terms.
	p6, q6 := eft.TwoProd(a[0], b[3])
	p7, q7 := eft.TwoProd(a[1], b[2])
	p8, q8 := eft.TwoProd(a[2], b[1])
	p9, q9 := eft.TwoProd(a[3], b[0])

	// Nine-two-sum of q0, s1, q3, q4, q5, p6, p7, p8, p9.
	q0, q3 = eft.TwoSum(q0, q3)
	q4, q5 = eft.TwoSum(q4, q5)
	p6, p7 = eft.TwoSum(p6, p7)
	p8, p9 = eft.TwoSum(p8, p9)
	// (t0, t1) = (q0, q3) + (q4, q5).
	t0, t1 = eft.TwoSum(q0, q4)
	t1 += q3 + q5
	// (r0, r1) = (p6, p7) + (p8, p9).
	r0, r1 := eft.TwoSum(p6, p8)
	r1 += p7 + p9
	// (q3, q4) = (t0, t1) + (r0, r1).
	q3, q4 = eft.TwoSum(t0, r0)
	q4 += t1 + r1
	// (t0, t1) = (q3, q4) + s1.
	t0, t1 = eft.TwoSum(q3, s1)
	t1 += q4

	// O(eps^4) terms — nine-one-sum.
	t1 += float64(a[1]*b[3]) + float64(a[2]*b[2]) + float64(a[3]*b[1]) + q6 + q7 + q8 + q9 + s2

	z0, z1, z2, z3 := renorm5(p0, p1, s0, t0, t1)
	return QD{z0, z1, z2, z3}
}

// MulFloat returns a · c.
func (a QD) MulFloat(c float64) QD {
	p0, q0 := eft.TwoProd(a[0], c)
	p1, q1 := eft.TwoProd(a[1], c)
	p2, q2 := eft.TwoProd(a[2], c)
	p3 := float64(a[3] * c) // the conversion bars contraction into s3
	s1, t1 := eft.TwoSum(q0, p1)
	s2, t2 := eft.TwoSum(q1, p2)
	s2, t1 = eft.TwoSum(s2, t1)
	s3 := q2 + p3 + t1 + t2
	z0, z1, z2, z3 := renorm5(p0, s1, s2, s3, 0)
	return QD{z0, z1, z2, z3}
}

// AddFloat returns a + c.
func (a QD) AddFloat(c float64) QD {
	s0, e0 := eft.TwoSum(a[0], c)
	s1, e1 := eft.TwoSum(a[1], e0)
	s2, e2 := eft.TwoSum(a[2], e1)
	s3, e3 := eft.TwoSum(a[3], e2)
	z0, z1, z2, z3 := renorm5(s0, s1, s2, s3, e3)
	return QD{z0, z1, z2, z3}
}

// Div returns a / b by quotient refinement (QD's accurate division).
func (a QD) Div(b QD) QD {
	q0 := a[0] / b[0]
	r := a.Sub(b.MulFloat(q0))
	q1 := r[0] / b[0]
	r = r.Sub(b.MulFloat(q1))
	q2 := r[0] / b[0]
	r = r.Sub(b.MulFloat(q2))
	q3 := r[0] / b[0]
	r = r.Sub(b.MulFloat(q3))
	q4 := r[0] / b[0]
	z0, z1, z2, z3 := renorm5(q0, q1, q2, q3, q4)
	return QD{z0, z1, z2, z3}
}

// Sqrt returns √a via Newton iteration on the inverse square root.
func (a QD) Sqrt() QD {
	if a[0] == 0 {
		return QD{}
	}
	// x ≈ 1/√a to double, then two Newton steps in qd arithmetic.
	x := QDFromFloat(1 / sqrt64(a[0]))
	half := QDFromFloat(0.5)
	for it := 0; it < 3; it++ {
		// x += x * (1 - a·x²) / 2
		ax2 := a.Mul(x).Mul(x)
		corr := QDFromFloat(1).Sub(ax2).Mul(x).Mul(half)
		x = x.Add(corr)
	}
	return a.Mul(x)
}

// Cmp compares a and b by value.
func (a QD) Cmp(b QD) int {
	d := a.Sub(b)
	for _, t := range d {
		if t > 0 {
			return 1
		}
		if t < 0 {
			return -1
		}
	}
	return 0
}
