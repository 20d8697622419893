package blas

import (
	"unsafe"

	"multifloats/internal/eft"
	"multifloats/mf"
)

// Cache-blocked, register-tiled GEMM and GEMV on expansion types.
//
// The naive ikj kernels in specialized.go keep one FPAN accumulation
// chain per C element and re-stream C through memory once per k step.
// The paper's §5.2 argument — branch-free expansion arithmetic is a long
// fixed dependency chain, so throughput comes from running many
// independent chains at once — says the fix is the classic BLIS
// decomposition:
//
//	for jc (Nc panels of B)            — L3-resident B panel
//	  for pc (Kc slabs)                — pack B[pc:pc+Kc, jc:jc+Nc]
//	    for ic (Mc panels of A)        — pack A[ic:ic+Mc, pc:pc+Kc]
//	      for jr, ir (micro tiles)     — mr×nr register tile of C
//
// The micro-kernel holds an mr×nr tile of C in scalar locals, giving
// mr·nr independent FPAN chains per loop iteration to hide the add/mul
// network latency, and reads A/B from packed panels so the inner loop is
// unit-stride with no bounds checks. Packing buffers are recycled through
// a sync.Pool (pool.go) and the ic panel loop runs on the persistent
// worker pool.
//
// Accuracy: the micro-kernels accumulate with the fused multiply–add
// networks of core.MulAcc{2,3,4} (the product's value-preserving
// pre-renormalization wires feed the addition FPAN directly, saving the
// renormalization chain per multiply-add), and the blocked driver sums
// each tile's Kc products into registers before adding the partial sum
// into C once per (jc, pc) slab. Both choices keep every component
// within the per-op error bound × accumulation depth of the naive
// result (pinned by TestGemmBlockedMatchesNaive), but neither is
// bit-identical to Mul-then-Add in the naive order. GemmF{2,3,4} and
// GemvF{2,3,4} remain the bit-reproducible reference paths.
//
// The tiled GEMV kernels process gemvMR rows per pass over x. Each row
// is accumulated left-to-right like DotF{2,3,4} but with the fused
// MulAcc networks, so results agree with GemvF{2,3,4} to the same
// bounded-rounding tolerance rather than bit-for-bit
// (TestGemvTiledMatchesNaive).

// blockSizes are the tile dimensions of one blocked instantiation.
type blockSizes struct {
	mr, nr     int // micro-tile (register) dimensions
	mc, kc, nc int // cache-block panel dimensions
	w          int // expansion width (components per element)
}

// Per-width block parameters. mr×nr is sized so the accumulator tile
// (mr·nr expansions) plus the working A/B elements fit the register file
// with acceptable spill: wider expansions get narrower tiles. kc keeps an
// mr×kc packed A strip plus a kc×nr packed B strip L1-resident; mc and nc
// bound the packed panels to L2-ish footprints (A: mc·kc elements,
// B: kc·nc elements).
var (
	blockF2 = blockSizes{mr: 4, nr: 2, mc: 64, kc: 256, nc: 256, w: 2}
	blockF3 = blockSizes{mr: 4, nr: 2, mc: 64, kc: 192, nc: 192, w: 3}
	blockF4 = blockSizes{mr: 3, nr: 2, mc: 64, kc: 160, nc: 160, w: 4}
)

func roundUp(x, m int) int { return (x + m - 1) / m * m }

// packASoA copies the mc×kc block at a (flattened row-major expansions,
// leading dimension lda elements, w components each) into dst in
// strip-major SoA order: for each mr-row strip, w contiguous component
// planes of kc·mr base values, each plane holding kc groups of mr
// row-adjacent components. The micro-kernel then reads every component
// unit-stride within its plane with no per-element deinterleave. Rows
// past mc within the last strip are zero-filled so the micro-kernel
// never branches on partial heights.
//
// (Not //mf:branchfree: the strip-height min is genuine control flow;
// packing moves bits and performs no FP arithmetic.)
//
//mf:hotpath
func packASoA[T eft.Float](dst, a []T, lda, mc, kc, mr, w int) {
	idx := 0
	for ir := 0; ir < mc; ir += mr {
		m := min(mr, mc-ir)
		for j := 0; j < w; j++ {
			for k := 0; k < kc; k++ {
				for r := 0; r < m; r++ {
					dst[idx] = a[((ir+r)*lda+k)*w+j]
					idx++
				}
				for r := m; r < mr; r++ {
					dst[idx] = 0
					idx++
				}
			}
		}
	}
}

// packBSoA copies the kc×nc block at b into strip-major SoA order: for
// each nr-column strip, w component planes of kc·nr base values (kc
// groups of nr column-adjacent components each), zero-padded past nc.
//
//mf:hotpath
func packBSoA[T eft.Float](dst, b []T, ldb, kc, nc, nr, w int) {
	idx := 0
	for jr := 0; jr < nc; jr += nr {
		nn := min(nr, nc-jr)
		for j := 0; j < w; j++ {
			for k := 0; k < kc; k++ {
				for jj := 0; jj < nn; jj++ {
					dst[idx] = b[(k*ldb+jr+jj)*w+j]
					idx++
				}
				for jj := nn; jj < nr; jj++ {
					dst[idx] = 0
					idx++
				}
			}
		}
	}
}

// gemmBlocked is the width-independent driver: loop structure, packing,
// and panel-level parallelism. A and B are repacked into strip-major SoA
// panels (see packASoA) so the micro-kernel's k loop issues unit-stride
// plane loads; C stays AoS because the tile writeback touches each
// element once. The flattening reinterprets []E as []T, which is exact
// because mf.F{2,3,4}[T] are array types ([w]T) with no padding. micro
// computes one mr×nr tile: C[0:m, 0:nn] += Σ_k ap[k]·bp[k] with C at
// leading dimension ldc; bs.w must match E's width. The SoA repack
// changes data layout only — every gate still evaluates the same values
// in the same order, so results are unchanged bit-for-bit from the AoS
// packing.
func gemmBlocked[E any, T eft.Float](a, b, c []E, n, workers int, bs blockSizes,
	micro func(ap, bp []T, kc int, c []E, ldc, m, nn int)) {
	if n <= 0 {
		return
	}
	w := bs.w
	aflat := unsafe.Slice((*T)(unsafe.Pointer(&a[0])), len(a)*w)
	bflat := unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)*w)
	apanelLen := func(kc int) int { return roundUp(bs.mc, bs.mr) * kc * w }
	for jc := 0; jc < n; jc += bs.nc {
		nc := min(bs.nc, n-jc)
		for pc := 0; pc < n; pc += bs.kc {
			kc := min(bs.kc, n-pc)
			bpanel := getPanel[T](roundUp(nc, bs.nr) * kc * w)
			packBSoA(bpanel, bflat[(pc*n+jc)*w:], n, kc, nc, bs.nr, w)
			nBlocks := (n + bs.mc - 1) / bs.mc
			parallelIndex(nBlocks, workers, func(ib int) {
				ic := ib * bs.mc
				mc := min(bs.mc, n-ic)
				apanel := getPanel[T](apanelLen(kc))
				packASoA(apanel, aflat[(ic*n+pc)*w:], n, mc, kc, bs.mr, w)
				for jr := 0; jr < nc; jr += bs.nr {
					nn := min(bs.nr, nc-jr)
					bp := bpanel[(jr/bs.nr)*(w*kc*bs.nr):]
					for ir := 0; ir < mc; ir += bs.mr {
						m := min(bs.mr, mc-ir)
						ap := apanel[(ir/bs.mr)*(w*kc*bs.mr):]
						micro(ap, bp, kc, c[(ic+ir)*n+jc+jr:], n, m, nn)
					}
				}
				putPanel(apanel)
			})
			putPanel(bpanel)
		}
	}
}

// ---- micro-kernels ----
//
// The gemmMicroF{2,3,4} and gemvTile4F{2,3,4} kernels live in
// micro_generated.go: each is straight-line code with the fused
// core.MulAcc{2,3,4} gate networks flattened inline (see genmicro/main.go
// for why calling internal/core from the inner loop forfeits the tile's
// ILP). The generated gate sequences are pinned bit-for-bit against
// internal/core by TestMicroMatchesCoreGates.

//go:generate go run ./genmicro

// ---- blocked GEMM entry points ----

// GemmBlockedF2 computes C += A·B (row-major n×n) on 2-term expansions
// with cache blocking, packed panels, and a 4×2 register tile.
func GemmBlockedF2[T eft.Float](a, b, c []mf.F2[T], n int) {
	gemmBlocked(a, b, c, n, 1, blockF2, gemmMicroF2[T])
}

// GemmBlockedF2Parallel distributes the ic panel loop over the worker
// pool; bit-identical to GemmBlockedF2 for any worker count (each C panel
// has a single writer and the pc slabs stay sequential).
func GemmBlockedF2Parallel[T eft.Float](a, b, c []mf.F2[T], n, workers int) {
	gemmBlocked(a, b, c, n, workers, blockF2, gemmMicroF2[T])
}

// GemmBlockedF3 is the 3-term blocked GEMM.
func GemmBlockedF3[T eft.Float](a, b, c []mf.F3[T], n int) {
	gemmBlocked(a, b, c, n, 1, blockF3, gemmMicroF3[T])
}

// GemmBlockedF3Parallel is GemmBlockedF3 on the worker pool.
func GemmBlockedF3Parallel[T eft.Float](a, b, c []mf.F3[T], n, workers int) {
	gemmBlocked(a, b, c, n, workers, blockF3, gemmMicroF3[T])
}

// GemmBlockedF4 is the 4-term blocked GEMM.
func GemmBlockedF4[T eft.Float](a, b, c []mf.F4[T], n int) {
	gemmBlocked(a, b, c, n, 1, blockF4, gemmMicroF4[T])
}

// GemmBlockedF4Parallel is GemmBlockedF4 on the worker pool.
func GemmBlockedF4Parallel[T eft.Float](a, b, c []mf.F4[T], n, workers int) {
	gemmBlocked(a, b, c, n, workers, blockF4, gemmMicroF4[T])
}

// ---- tiled GEMV ----

// gemvMR rows of A are swept per pass over x, giving gemvMR independent
// accumulation chains and one x load per gemvMR multiply-adds. Per-row
// accumulation order matches DotF{2,3,4} but each step uses the fused
// MulAcc network, so results carry the same bounded-rounding tolerance
// as the blocked GEMM rather than matching GemvF bit-for-bit.
const gemvMR = 4

// GemvTiledF2 computes y = A·x (row-major n×m) on 2-term expansions,
// 4 rows per pass.
func GemvTiledF2[T eft.Float](a []mf.F2[T], n, m int, x, y []mf.F2[T]) {
	i := 0
	for ; i+gemvMR <= n; i += gemvMR {
		y[i], y[i+1], y[i+2], y[i+3] = gemvTile4F2(
			a[i*m:(i+1)*m], a[(i+1)*m:(i+2)*m], a[(i+2)*m:(i+3)*m], a[(i+3)*m:(i+4)*m], x)
	}
	for ; i < n; i++ {
		y[i] = DotF2(a[i*m:(i+1)*m], x)
	}
}

// GemvTiledF3 is the 3-term tiled GEMV.
func GemvTiledF3[T eft.Float](a []mf.F3[T], n, m int, x, y []mf.F3[T]) {
	i := 0
	for ; i+gemvMR <= n; i += gemvMR {
		y[i], y[i+1], y[i+2], y[i+3] = gemvTile4F3(
			a[i*m:(i+1)*m], a[(i+1)*m:(i+2)*m], a[(i+2)*m:(i+3)*m], a[(i+3)*m:(i+4)*m], x)
	}
	for ; i < n; i++ {
		y[i] = DotF3(a[i*m:(i+1)*m], x)
	}
}

// GemvTiledF4 is the 4-term tiled GEMV.
func GemvTiledF4[T eft.Float](a []mf.F4[T], n, m int, x, y []mf.F4[T]) {
	i := 0
	for ; i+gemvMR <= n; i += gemvMR {
		y[i], y[i+1], y[i+2], y[i+3] = gemvTile4F4(
			a[i*m:(i+1)*m], a[(i+1)*m:(i+2)*m], a[(i+2)*m:(i+3)*m], a[(i+3)*m:(i+4)*m], x)
	}
	for ; i < n; i++ {
		y[i] = DotF4(a[i*m:(i+1)*m], x)
	}
}

// GemvTiledF2Parallel splits the tiled GEMV rows across the worker pool
// (still bit-identical for any split: rows are independent).
func GemvTiledF2Parallel[T eft.Float](a []mf.F2[T], n, m int, x, y []mf.F2[T], workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		GemvTiledF2(a[lo*m:hi*m], hi-lo, m, x, y[lo:hi])
	})
}

// GemvTiledF3Parallel is the parallel 3-term tiled GEMV.
func GemvTiledF3Parallel[T eft.Float](a []mf.F3[T], n, m int, x, y []mf.F3[T], workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		GemvTiledF3(a[lo*m:hi*m], hi-lo, m, x, y[lo:hi])
	})
}

// GemvTiledF4Parallel is the parallel 4-term tiled GEMV.
func GemvTiledF4Parallel[T eft.Float](a []mf.F4[T], n, m int, x, y []mf.F4[T], workers int) {
	parallelRows(n, workers, func(lo, hi int) {
		GemvTiledF4(a[lo*m:hi*m], hi-lo, m, x, y[lo:hi])
	})
}
