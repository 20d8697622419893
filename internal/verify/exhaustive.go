package verify

// Exhaustive verification of lifted kernels over the reduced-precision
// softfloat model — the machine-checked half of cmd/mfprove.
//
// Where verify.go samples adversarial float64 inputs against a big.Float
// oracle, this file enumerates a *complete* structured input space at
// p = 3..5 bits and checks every case exactly in int64 arithmetic, in the
// spirit of the companion paper's exhaustive small-precision search. The
// space is described by the proof spec (fpan.Spec): per input group,
// every p-bit lead mantissa across an exponent window, with tail terms
// ranging over the nonoverlap-band boundary values (where accumulation-
// network counterexamples live) plus full-mantissa layers where the case
// budget allows. The model is scale-invariant, so one global exponent
// shift normalizes the space to overflow-free positive integers.
//
// The driver is parallel (chunked over the first input group) and
// checkpointable (chunk bitmap + merged counters), so the same API
// serves both the CI proof gate and long annealing campaigns. The
// fan-out is plain goroutines, not blas.Parallel: verify must not
// import the kernel packages it exists to check (internal/core's own
// tests import verify, and blas imports core — a test import cycle).

import (
	"fmt"
	"math/bits"
	"sync"

	"multifloats/internal/fpan"
	"multifloats/internal/softfloat"
)

// parallelChunks splits [0, n) into contiguous ranges, one per worker,
// and runs body on them concurrently (the caller's goroutine takes the
// first range). body must be safe for concurrent disjoint ranges.
func parallelChunks(n, workers int, body func(lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		lo, hi := lo, min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	body(0, min(chunk, n))
	wg.Wait()
}

// symVal is a not-yet-normalized space value m·2^e (m = 0 or a signed
// p-bit mantissa).
type symVal struct {
	m int64
	e int
}

// Checkpoint records partial progress of an exhaustive run. Chunks are
// indexed by the first input group's candidate list; a resumed run skips
// chunks already marked done and keeps accumulating into the same
// counters.
type Checkpoint struct {
	Spec       string
	Hash       string
	Done       []bool
	Chunks     int
	Cases      int64
	Violations int64
	First      []int64 // inputs of the first violation found (nil if none)
	FirstOut   []int64
	MinQ       int   // tightest discarded-error bound exponent that held
	MaxBand    int64 // widest output nonoverlap ratio observed
}

// NewCheckpoint returns an empty checkpoint sized for the spec's space.
func NewCheckpoint(spec *fpan.Spec, hash string, chunks int) *Checkpoint {
	return &Checkpoint{Spec: spec.Name, Hash: hash, Done: make([]bool, chunks), Chunks: chunks, MinQ: 1 << 20}
}

// ExhaustiveResult is the outcome of a completed (or aborted) run.
type ExhaustiveResult struct {
	Spec       string
	Hash       string
	P          uint
	Cases      int64
	Violations int64
	First      []int64
	FirstOut   []int64
	// MinQ is the tightest bound exponent that held over every enumerated
	// case (calibration: the spec's Bound.Bits(P) must be ≤ MinQ).
	MinQ int
	// MaxBand is the widest output nonoverlap band ratio observed
	// (calibration: the spec's Band must be ≥ MaxBand).
	MaxBand int64
}

// Ok reports whether the run completed with zero violations.
func (r *ExhaustiveResult) Ok() bool { return r.Violations == 0 }

// ExhaustiveOptions tunes the driver. The zero value is a sensible
// single-shot run on all pool workers.
type ExhaustiveOptions struct {
	Workers int // parallel workers (0 = blas pool default)
	// Resume continues a previous run's checkpoint (must match the
	// program hash).
	Resume *Checkpoint
	// OnChunk, if set, observes the live checkpoint after every finished
	// chunk (called under the driver lock: read, copy, return).
	OnChunk func(cp *Checkpoint)
	// KeepGoing scans the whole space even after a violation (for
	// calibration); default stops as soon as any chunk finds one.
	KeepGoing bool
	// Perm maps spec parameter order (groups concatenated) to program
	// parameter order: program param Perm[i] receives spec value i. Nil
	// means the orders coincide (true for lifted reference kernels;
	// network-converted programs use wire order and need a permutation).
	Perm []int
}

// space is a fully materialized, normalized enumeration space.
type space struct {
	groups [][][]int64 // groups[g][candidate] = term values
	sums   [][]int64   // per-candidate exact group sums
	total  int64
}

// leadSigned says whether group g's leading term needs both signs given
// the kernel's value model; the remaining sign freedom is removed by the
// model's exact odd symmetries (negating all inputs of a sum, or all
// terms of one multiplication operand, negates every wire exactly).
func leadSigned(v fpan.ValKind, g int) bool {
	switch v {
	case fpan.ValSum, fpan.ValEFTSum, fpan.ValEFTFastSum:
		return g > 0
	case fpan.ValMulAcc:
		return g == 1
	}
	// ValProd / ValSqr / ValEFTProd: all signs recovered by symmetry.
	return false
}

func bitexp(v int64) int {
	if v < 0 {
		v = -v
	}
	return bits.Len64(uint64(v)) - 1
}

// groupCandidates enumerates one group's candidates as symbolic values.
func groupCandidates(g fpan.GroupSpace, p uint, strict bool, signed bool) [][]symVal {
	mLo := int64(1) << (p - 1)
	mHi := int64(1)<<p - 1
	bnd := g.Bnd
	if bnd == 0 {
		bnd = 3
	}
	var out [][]symVal
	out = append(out, make([]symVal, g.Terms)) // the all-zero group
	cur := make([]symVal, g.Terms)
	var rec func(level, lastE int)
	rec = func(level, lastE int) {
		if level == g.Terms {
			out = append(out, append([]symVal(nil), cur...))
			return
		}
		edge := lastE - int(p) + 2 // weak band: |t| ≤ 2·ulp(prev) = 2^edge
		if strict {
			edge = lastE - int(p) // strict: |t| ≤ ulp(prev)/2
		}
		cur[level] = symVal{}
		rec(level+1, lastE) // zero term; successor still bounds to lastE
		emit := func(m int64, e int) {
			cur[level] = symVal{m, e}
			le := bitexp(m) + e
			rec(level+1, le)
		}
		for _, s := range []int64{1, -1} {
			// Band-boundary magnitudes, largest first: the exact band
			// edge, then a non-power-of-two just inside it, then the
			// quarter-edge.
			if bnd >= 1 {
				emit(s, edge)
			}
			if bnd >= 2 && p >= 2 {
				emit(3*s, edge-2)
			}
			if bnd >= 3 {
				emit(s, edge-2)
			}
		}
		if level <= g.Full {
			for m := mLo; m <= mHi; m++ {
				for _, s := range []int64{1, -1} {
					for e := edge - int(p) - g.Gap; e <= edge-int(p); e++ {
						emit(s*m, e)
					}
				}
			}
		}
	}
	signs := []int64{1}
	if signed {
		signs = []int64{1, -1}
	}
	for e := -g.LeadDown; e <= g.LeadUp; e++ {
		for m := mLo; m <= mHi; m++ {
			for _, s := range signs {
				cur[0] = symVal{s * m, e}
				rec(1, bitexp(m)+e)
			}
		}
	}
	return out
}

// buildSpace materializes every group's candidates as normalized int64
// values and checks overflow headroom for the spec's value model.
func buildSpace(spec *fpan.Spec) (*space, error) {
	sym := make([][][]symVal, len(spec.Groups))
	minE := 0
	for gi, g := range spec.Groups {
		sym[gi] = groupCandidates(g, spec.P, spec.Strict, leadSigned(spec.Val, gi))
		for _, cand := range sym[gi] {
			for _, v := range cand {
				if v.m != 0 && v.e < minE {
					minE = v.e
				}
			}
		}
	}
	sp := &space{
		groups: make([][][]int64, len(spec.Groups)),
		sums:   make([][]int64, len(spec.Groups)),
		total:  1,
	}
	maxSum := make([]int64, len(spec.Groups))
	for gi := range sym {
		cands := make([][]int64, len(sym[gi]))
		sums := make([]int64, len(sym[gi]))
		for ci, cand := range sym[gi] {
			vals := make([]int64, len(cand))
			var sum int64
			for ti, v := range cand {
				if v.m != 0 {
					shift := uint(v.e - minE)
					if int(shift)+bits.Len64(uint64(abs64(v.m))) > 61 {
						return nil, fmt.Errorf("spec %q: space value overflows int64 (widen fails at shift %d)", spec.Name, shift)
					}
					vals[ti] = v.m << shift
				}
				sum += vals[ti]
			}
			cands[ci] = vals
			sums[ci] = sum
			if a := abs64(sum); a > maxSum[gi] {
				maxSum[gi] = a
			}
		}
		sp.groups[gi] = cands
		sp.sums[gi] = sums
		sp.total *= int64(len(cands))
	}
	// Headroom for the exact true value and the discarded-error diff.
	switch spec.Val {
	case fpan.ValProd, fpan.ValEFTProd:
		if bits.Len64(uint64(maxSum[0]))+bits.Len64(uint64(maxSum[1])) > 60 {
			return nil, fmt.Errorf("spec %q: product space too deep for int64", spec.Name)
		}
	case fpan.ValSqr:
		if 2*bits.Len64(uint64(maxSum[0])) > 60 {
			return nil, fmt.Errorf("spec %q: square space too deep for int64", spec.Name)
		}
	case fpan.ValMulAcc:
		if bits.Len64(uint64(maxSum[1]))+bits.Len64(uint64(maxSum[2])) > 59 ||
			bits.Len64(uint64(maxSum[0])) > 59 {
			return nil, fmt.Errorf("spec %q: mulacc space too deep for int64", spec.Name)
		}
	}
	return sp, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// boundExp returns the largest q ≥ -1 such that |d|·2^q ≤ |s| (capped at
// 62); -1 means even q = 0 fails, and a zero diff yields the cap.
func boundExp(d, s int64) int {
	d, s = abs64(d), abs64(s)
	if d == 0 {
		return 62
	}
	q := -1
	for q < 62 && d <= s>>(uint(q+1)) {
		q++
	}
	return q
}

// bandRatio returns the widest ⌈|next| / ulp(prev)⌉ over consecutive
// nonzero outputs (0 when fewer than two nonzero terms).
func bandRatio(out []int64, p uint) int64 {
	var ratio int64
	prev := int64(0)
	for _, lo := range out {
		if lo == 0 {
			continue
		}
		if prev != 0 {
			u := softfloat.Ulp(prev, p)
			r := (abs64(lo) + u - 1) / u
			if r > ratio {
				ratio = r
			}
		}
		prev = lo
	}
	return ratio
}

// Exhaustive enumerates the spec's entire input space and checks every
// case of the program against the spec's value model and error bound.
// The program's parameters must be the spec's groups concatenated in
// order (the reference kernels' declaration order).
func Exhaustive(prog *fpan.Program, spec *fpan.Spec, opt *ExhaustiveOptions) (*ExhaustiveResult, error) {
	if opt == nil {
		opt = &ExhaustiveOptions{}
	}
	if prog.NumParams != spec.NumParams() {
		return nil, fmt.Errorf("spec %q wants %d params, program %q has %d",
			spec.Name, spec.NumParams(), prog.Name, prog.NumParams)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	sp, err := buildSpace(spec)
	if err != nil {
		return nil, err
	}
	hash := prog.Hash()
	chunks := len(sp.groups[0])
	cp := opt.Resume
	if cp == nil {
		cp = NewCheckpoint(spec, hash, chunks)
	} else if cp.Hash != hash || cp.Chunks != chunks {
		return nil, fmt.Errorf("spec %q: checkpoint is for hash %s/%d chunks, run is %s/%d",
			spec.Name, cp.Hash, cp.Chunks, hash, chunks)
	}
	var (
		mu   sync.Mutex
		stop bool
	)
	q := spec.Bound.Bits(int(spec.P))
	if opt.Perm != nil && len(opt.Perm) != prog.NumParams {
		return nil, fmt.Errorf("spec %q: perm has %d entries for %d params", spec.Name, len(opt.Perm), prog.NumParams)
	}
	parallelChunks(chunks, opt.Workers, func(lo, hi int) {
		specIn := make([]int64, prog.NumParams)
		in := specIn
		if opt.Perm != nil {
			in = make([]int64, prog.NumParams)
		}
		regs := make([]int64, prog.NumRegs)
		out := make([]int64, 0, len(prog.Outputs))
		idx := make([]int, len(sp.groups))
		for ci := lo; ci < hi; ci++ {
			mu.Lock()
			skip := cp.Done[ci] || (stop && !opt.KeepGoing)
			mu.Unlock()
			if skip {
				continue
			}
			var (
				cases, viol int64
				first       []int64
				firstOut    []int64
				minQ        = 1 << 20
				maxBand     int64
			)
			copy(specIn, sp.groups[0][ci])
			n0 := len(sp.groups[0][ci])
			for gi := range idx {
				idx[gi] = 0
			}
			idx[0] = ci
			for {
				// Fill groups 1.. and collect group sums.
				off := n0
				for gi := 1; gi < len(sp.groups); gi++ {
					cand := sp.groups[gi][idx[gi]]
					copy(specIn[off:], cand)
					off += len(cand)
				}
				if opt.Perm != nil {
					for i, pi := range opt.Perm {
						in[pi] = specIn[i]
					}
				}
				var truth int64
				switch spec.Val {
				case fpan.ValSum:
					truth = sp.sums[0][ci]
					for gi := 1; gi < len(sp.groups); gi++ {
						truth += sp.sums[gi][idx[gi]]
					}
				case fpan.ValProd, fpan.ValEFTProd:
					truth = sp.sums[0][ci] * sp.sums[1][idx[1]]
				case fpan.ValSqr:
					truth = sp.sums[0][ci] * sp.sums[0][ci]
				case fpan.ValMulAcc:
					truth = sp.sums[0][ci] + sp.sums[1][idx[1]]*sp.sums[2][idx[2]]
				}
				out = softfloat.RunProgram(prog, in, spec.P, regs, out[:0])
				cases++
				ok := true
				switch spec.Val {
				case fpan.ValEFTSum, fpan.ValEFTFastSum:
					a, b := specIn[0], specIn[1]
					s := softfloat.RNE(a+b, spec.P)
					ok = out[0] == s
					precond := spec.Val == fpan.ValEFTSum ||
						a == 0 || b == 0 || bitexp(a) >= bitexp(b)
					if ok && precond {
						ok = out[0]+out[1] == a+b
					}
				case fpan.ValEFTProd:
					a, b := specIn[0], specIn[1]
					ok = out[0] == softfloat.RNE(truth, spec.P) && out[0]+out[1] == a*b
				default:
					var sumOut int64
					for _, v := range out {
						sumOut += v
					}
					d := truth - sumOut
					if bq := boundExp(d, truth); bq < minQ {
						minQ = bq
					}
					if br := bandRatio(out, spec.P); br > maxBand {
						maxBand = br
					}
					ok = softfloat.CheckOutputsBand(out, d, truth, q, spec.P, spec.Band)
				}
				if !ok && viol == 0 {
					first = append([]int64(nil), in...)
					firstOut = append([]int64(nil), out...)
				}
				if !ok {
					viol++
					if !opt.KeepGoing {
						break
					}
				}
				// Odometer over groups 1..k-1.
				gi := len(idx) - 1
				for gi >= 1 {
					idx[gi]++
					if idx[gi] < len(sp.groups[gi]) {
						break
					}
					idx[gi] = 0
					gi--
				}
				if gi < 1 {
					break
				}
			}
			mu.Lock()
			cp.Done[ci] = true
			cp.Cases += cases
			cp.Violations += viol
			if viol > 0 {
				stop = true
				if cp.First == nil {
					cp.First = first
					cp.FirstOut = firstOut
				}
			}
			if minQ < cp.MinQ {
				cp.MinQ = minQ
			}
			if maxBand > cp.MaxBand {
				cp.MaxBand = maxBand
			}
			if opt.OnChunk != nil {
				opt.OnChunk(cp)
			}
			mu.Unlock()
		}
	})
	return &ExhaustiveResult{
		Spec:       spec.Name,
		Hash:       hash,
		P:          spec.P,
		Cases:      cp.Cases,
		Violations: cp.Violations,
		First:      cp.First,
		FirstOut:   cp.FirstOut,
		MinQ:       cp.MinQ,
		MaxBand:    cp.MaxBand,
	}, nil
}
