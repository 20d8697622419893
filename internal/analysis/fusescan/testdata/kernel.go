package kernel

func f(x, y, z float64) float64 {
	p := x * y
	s := p + z
	t := math.FMA(x, y, -p)
	u := q*r + v //mf:allow fpcontract -- fused on purpose
	return s + t + u
}
