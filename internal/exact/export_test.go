package exact

// Test hooks: the renormalization schedule is an internal invariant
// (value-preserving at any point), so the suite forces renorms at
// arbitrary moments and inspects the carry word to prove it.

// Renorm forces a carry propagation.
func (a *Accumulator) Renorm() { a.renorm() }

// Top exposes the carry word above the bin array.
func (a *Accumulator) Top() int64 { return a.top }

// BinCount is the size of the bin array.
const BinCount = binCount

// RenormEvery is the renorm budget: deposits between carry propagations.
const RenormEvery = renormEvery

// BlockLen is the most deposits the slot table takes between flushes.
const BlockLen = blockLen

// SetPending sets the deposits charged since the last renorm, so a test
// can start a fold just short of the budget.
func (a *Accumulator) SetPending(n int) { a.pending = n }

// AddDotSlabPerElement is the definition AddDotSlab must match in
// renormalized state: every cross product through addProd, the budget
// charged w² per element.
func (a *Accumulator) AddDotSlabPerElement(w int, x, y []float64) {
	for i := 0; i+w <= len(x); i += w {
		for j := 0; j < w; j++ {
			for k := 0; k < w; k++ {
				a.addProd(x[i+j], y[i+k])
			}
		}
		a.bump(w * w)
	}
}
