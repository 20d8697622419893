// Package fpan implements floating-point accumulation networks (FPANs), the
// branch-free algorithm class at the core of the paper.
//
// An FPAN is a fixed sequence of ⊕ (rounded add), TwoSum, and FastTwoSum
// gates applied to a fixed set of wires. Executing the network on a set of
// floating-point inputs produces a nonoverlapping floating-point expansion
// of the exact sum of the inputs, up to a bounded discarded error
// (paper §3). Networks are plain data: they can be executed, rendered as
// diagrams, measured (size, depth), mutated by the simulated-annealing
// search in internal/anneal, and checked by internal/verify.
package fpan

import (
	"fmt"

	"multifloats/internal/eft"
)

// GateKind enumerates the three FPAN gate types.
type GateKind uint8

const (
	// Add replaces wire A with RN(A+B) and discards the rounding error.
	// Wire B is consumed: every interpreter sets it to 0, and a network
	// that reads it again has no Program form (see FromNetwork).
	Add GateKind = iota
	// Sum applies TwoSum: wire A receives the rounded sum, wire B the
	// exact rounding error.
	Sum
	// FastSum applies FastTwoSum: like Sum, but only 3 FLOPs, and the
	// error output is exact only under the precondition that wire A is
	// zero, wire B is zero, or exponent(A) ≥ exponent(B).
	FastSum
)

func (k GateKind) String() string {
	switch k {
	case Add:
		return "Add"
	case Sum:
		return "TwoSum"
	case FastSum:
		return "FastTwoSum"
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// FLOPs returns the machine operation count of one gate.
func (k GateKind) FLOPs() int {
	switch k {
	case Add:
		return 1
	case Sum:
		return 6
	case FastSum:
		return 3
	}
	return 0
}

// Gate is one vertical gate in the network: it reads wires A and B and
// writes its result(s) back to the same wires.
type Gate struct {
	Kind GateKind
	A, B int
}

// Network is an FPAN: wires 0..NumWires-1 initially hold the inputs (input
// i on wire i, labelled InputLabels[i]); the gates execute in order; the
// outputs are read from the wires listed in Outputs.
type Network struct {
	Name         string
	NumWires     int
	InputLabels  []string
	OutputLabels []string
	Outputs      []int
	Gates        []Gate

	// ErrorBoundBits is the claimed bound exponent q: the absolute value
	// of the sum of all discarded error terms is ≤ 2^-q · |Σ inputs|.
	// For the paper's networks q = 2p-1, 3p-3, 4p-4, 2p-3, ... (§4).
	ErrorBoundBits int
}

// Validate reports structural problems: out-of-range wire indices, gates
// with A == B, or duplicate/out-of-range output wires.
func (n *Network) Validate() error {
	if n.NumWires <= 0 {
		return fmt.Errorf("fpan %q: NumWires = %d", n.Name, n.NumWires)
	}
	if len(n.InputLabels) != n.NumWires {
		return fmt.Errorf("fpan %q: %d input labels for %d wires", n.Name, len(n.InputLabels), n.NumWires)
	}
	if len(n.OutputLabels) != len(n.Outputs) {
		return fmt.Errorf("fpan %q: %d output labels for %d outputs", n.Name, len(n.OutputLabels), len(n.Outputs))
	}
	for i, g := range n.Gates {
		if g.A < 0 || g.A >= n.NumWires || g.B < 0 || g.B >= n.NumWires {
			return fmt.Errorf("fpan %q: gate %d wires (%d,%d) out of range", n.Name, i, g.A, g.B)
		}
		if g.A == g.B {
			return fmt.Errorf("fpan %q: gate %d reads wire %d twice", n.Name, i, g.A)
		}
		if g.Kind > FastSum {
			return fmt.Errorf("fpan %q: gate %d has unknown kind", n.Name, i)
		}
	}
	seen := make(map[int]bool, len(n.Outputs))
	for _, w := range n.Outputs {
		if w < 0 || w >= n.NumWires {
			return fmt.Errorf("fpan %q: output wire %d out of range", n.Name, w)
		}
		if seen[w] {
			return fmt.Errorf("fpan %q: duplicate output wire %d", n.Name, w)
		}
		seen[w] = true
	}
	return nil
}

// Size returns the total number of gates (the paper's "size").
func (n *Network) Size() int { return len(n.Gates) }

// FLOPs returns the total machine-operation count of one execution.
func (n *Network) FLOPs() int {
	total := 0
	for _, g := range n.Gates {
		total += g.Kind.FLOPs()
	}
	return total
}

// Depth returns the number of gates on the longest dependency path (the
// paper's "depth"). Gate j depends on gate i < j if they share a wire.
func (n *Network) Depth() int {
	wireDepth := make([]int, n.NumWires)
	max := 0
	for _, g := range n.Gates {
		d := wireDepth[g.A]
		if wireDepth[g.B] > d {
			d = wireDepth[g.B]
		}
		d++
		wireDepth[g.A] = d
		wireDepth[g.B] = d
		if d > max {
			max = d
		}
	}
	return max
}

// Run executes the network on in (len(in) must equal NumWires) and returns
// the output expansion in order. It is branch-free modulo the gate-type
// dispatch, which is a fixed pattern per network.
func Run[T eft.Float](n *Network, in []T) []T {
	if len(in) != n.NumWires {
		panic(fmt.Sprintf("fpan %q: got %d inputs, want %d", n.Name, len(in), n.NumWires))
	}
	w := make([]T, len(in))
	copy(w, in)
	RunInPlace(n, w)
	out := make([]T, len(n.Outputs))
	for i, idx := range n.Outputs {
		out[i] = w[idx]
	}
	return out
}

// RunInPlace executes the network directly on the wire slice w.
func RunInPlace[T eft.Float](n *Network, w []T) {
	for _, g := range n.Gates {
		a, b := w[g.A], w[g.B]
		switch g.Kind {
		case Add:
			w[g.A] = a + b
			w[g.B] = 0
		case Sum:
			w[g.A], w[g.B] = eft.TwoSum(a, b)
		case FastSum:
			w[g.A], w[g.B] = eft.FastTwoSum(a, b)
		}
	}
}

// Clone returns a deep copy of the network (gates and label slices).
func (n *Network) Clone() *Network {
	c := *n
	c.Gates = append([]Gate(nil), n.Gates...)
	c.Outputs = append([]int(nil), n.Outputs...)
	c.InputLabels = append([]string(nil), n.InputLabels...)
	c.OutputLabels = append([]string(nil), n.OutputLabels...)
	return &c
}

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("%s: %d wires, size %d, depth %d, %d FLOPs, bound 2^-%d",
		n.Name, n.NumWires, n.Size(), n.Depth(), n.FLOPs(), n.ErrorBoundBits)
}
