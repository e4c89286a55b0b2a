package neural

import "math"

// This file holds the batched matrix kernels the training and inference
// paths are built on. Everything here obeys one contract that the rest of
// the package (and the AVX2 variants in kernels_amd64.s) must preserve:
//
//	For every output element, floating-point contributions are accumulated
//	in ascending contraction-index order, exactly as the sample-level
//	reference loops do.
//
// Because IEEE-754 addition is not associative, this contract — not just
// mathematical equality — is what makes the batched, blocked and
// SIMD-accelerated paths produce bit-identical results to the per-sample
// formulation, for any batch size, blocking factor or worker count. The
// kernels may tile freely over *output* elements (rows/column chunks),
// since distinct outputs never share an accumulator; they must never split
// or reorder the contraction (k) loop of a single output element.

// Mat is a dense row-major matrix: element (i, j) lives at Data[i*Cols+j].
// Rows of one Mat are contiguous, so Row(i) returns a plain slice view.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zeroed rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic("neural: matrix dims must be positive")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns the i-th row as a slice view (shared backing).
func (m *Mat) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// MulNT computes dst = x·wᵀ for row-major x (r×k) and w (c×k), adding
// bias (len c) to every row when non-nil. dst must be r×c. The transposed
// operand makes both inputs stream row-contiguously, which is why the
// layer weights (Out×In) are stored this way.
func (dst *Mat) MulNT(x, w *Mat, bias []float64) {
	if x.Cols != w.Cols || dst.Rows != x.Rows || dst.Cols != w.Rows {
		panic("neural: MulNT dimension mismatch")
	}
	for s := 0; s < x.Rows; s++ {
		mulNTRow(dst.Row(s), x.Row(s), w.Data, bias, w.Rows, w.Cols)
	}
}

// mulNTRow computes one output row: dst[o] = bias[o] + Σ_i x[i]·w[o][i].
// Output elements are tiled 4-wide so four independent accumulator chains
// are in flight (the i-recurrence per element otherwise serializes on FP
// add latency); each element still accumulates in ascending i.
func mulNTRow(dst, x, w, bias []float64, out, in int) {
	o := 0
	for ; o+4 <= out; o += 4 {
		w0 := w[o*in : o*in+in]
		w1 := w[(o+1)*in : (o+1)*in+in]
		w2 := w[(o+2)*in : (o+2)*in+in]
		w3 := w[(o+3)*in : (o+3)*in+in]
		var s0, s1, s2, s3 float64
		if bias != nil {
			s0, s1, s2, s3 = bias[o], bias[o+1], bias[o+2], bias[o+3]
		}
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		wo := w[o*in : o*in+in]
		var sum float64
		if bias != nil {
			sum = bias[o]
		}
		for i, xi := range x {
			sum += wo[i] * xi
		}
		dst[o] = sum
	}
}

// MulNN computes dst = d·w for row-major d (r×k) and w (k×c); dst must be
// r×c and is overwritten.
func (dst *Mat) MulNN(d, w *Mat) {
	if d.Cols != w.Rows || dst.Rows != d.Rows || dst.Cols != w.Cols {
		panic("neural: MulNN dimension mismatch")
	}
	for s := 0; s < d.Rows; s++ {
		row := dst.Row(s)
		clearF(row)
		axpyMat(row, d.Row(s), w.Data, w.Cols)
	}
}

// axpyMat accumulates dst[j] += Σ_k a[k]·b[k][j] over the len(a)×m
// row-major matrix b. The k loop is outermost (pure Go) or innermost per
// column chunk (AVX2), but each dst element always sees contributions in
// ascending k — the two schedules are bit-identical.
func axpyMat(dst, a, b []float64, m int) {
	if len(a) == 0 {
		return
	}
	if useAsmKernels && m >= 4 {
		axpyMatAsm(dst, a, b, m)
		return
	}
	axpyMatGo(dst, a, b, m)
}

// axpyMatGo is the portable kernel: k-tiled by 4 so each pass streams four
// b rows against one resident dst row. The per-element add sequence stays
// k-ascending (the four updates are separate statements, not a reassociated
// sum).
func axpyMatGo(dst, a, b []float64, m int) {
	dst = dst[:m]
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		b0 := b[k*m : k*m+m]
		b1 := b[(k+1)*m : (k+1)*m+m]
		b2 := b[(k+2)*m : (k+2)*m+m]
		b3 := b[(k+3)*m : (k+3)*m+m]
		for j := range dst {
			v := dst[j]
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
			dst[j] = v
		}
	}
	for ; k < len(a); k++ {
		ak := a[k]
		bk := b[k*m : k*m+m]
		for j := range dst {
			dst[j] += ak * bk[j]
		}
	}
}

// gemmAcc accumulates a small general matrix product over whole row
// blocks: for r in [0, rows), j in [0, m):
//
//	dst[r*dstStride+j] += Σ_k a[r*aRowStride + k*aElemStride] · b[k*m+j]
//
// aElemStride lets the same kernel read a either row-contiguous (forward,
// backward: stride 1) or column-wise (gradient accumulation reads δᵀ
// straight out of the row-major δ matrix, stride = its width — no explicit
// transpose pass). One call covers a whole batch shard, amortizing call
// overhead that per-row kernels pay ~200k times per training run, and the
// AVX2 version processes row pairs so each loaded b chunk feeds two
// accumulator sets. Per dst element the k order is ascending, always.
func gemmAcc(dst, a, b []float64, rows, k, m, dstStride, aRowStride, aElemStride int) {
	if rows <= 0 || k <= 0 {
		return
	}
	if useAsmKernels && m >= 4 {
		gemmAccAsm(dst, a, b, rows, k, m, dstStride, aRowStride, aElemStride)
		return
	}
	for r := 0; r < rows; r++ {
		drow := dst[r*dstStride : r*dstStride+m]
		if aElemStride == 1 {
			axpyMatGo(drow, a[r*aRowStride:r*aRowStride+k], b, m)
			continue
		}
		for kk := 0; kk < k; kk++ {
			av := a[r*aRowStride+kk*aElemStride]
			brow := b[kk*m : kk*m+m]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

// sigmoidScalar is the sample-level reference: Activation.apply(ActSigmoid)
// spelled out. The AVX2 path must match it bit for bit (it replicates the
// runtime's archExp FMA algorithm per lane and bails out to this scalar
// form for arguments outside [-709, 708]).
func sigmoidScalar(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}

// sigmoidVec computes dst[i] = σ(src[i]). Out-of-place so a lane that the
// vector fast path cannot handle (|z| huge, NaN, ±Inf) can be recomputed
// from src by the scalar fallback.
func sigmoidVec(dst, src []float64) {
	if useAsmSigmoid {
		for len(src) >= 4 {
			n := sigmoidBlocksAsm(dst, src)
			dst, src = dst[n:], src[n:]
			if len(src) >= 4 {
				// The asm bailed on this block: one of its four lanes is
				// outside the fast-path domain. Resolve it scalar and resume.
				for i := 0; i < 4; i++ {
					dst[i] = sigmoidScalar(src[i])
				}
				dst, src = dst[4:], src[4:]
			}
		}
	}
	for i, z := range src {
		dst[i] = sigmoidScalar(z)
	}
}

// actVec applies the activation elementwise: dst[i] = a.apply(src[i]).
// Hoisting the switch out of the element loop removes the per-element
// dispatch the sample-level path paid.
func actVec(a Activation, dst, src []float64) {
	switch a {
	case ActSigmoid:
		sigmoidVec(dst, src)
	case ActTanh:
		for i, z := range src {
			dst[i] = math.Tanh(z)
		}
	case ActReLU:
		for i, z := range src {
			if z > 0 {
				dst[i] = z
			} else {
				dst[i] = 0
			}
		}
	case ActIdentity:
		copy(dst, src)
	default:
		panic("neural: invalid activation")
	}
}

// derivMulVec multiplies dst elementwise by a.derivFromOutput(y), matching
// the reference's "accumulate fully, then scale once" order.
func derivMulVec(a Activation, dst, y []float64) {
	switch a {
	case ActSigmoid:
		for i, yi := range y {
			dst[i] *= yi * (1 - yi)
		}
	case ActTanh:
		for i, yi := range y {
			dst[i] *= 1 - yi*yi
		}
	case ActReLU:
		for i, yi := range y {
			if !(yi > 0) {
				dst[i] *= 0 // ×0, not =0: preserves Inf·0 → NaN semantics
			}
		}
	case ActIdentity:
	default:
		panic("neural: invalid activation")
	}
}

// updateParams applies one momentum-SGD step to a parameter vector:
//
//	v = mom·v − scale·(g + l2·w);  w += v
//
// with the exact scalar expression order of the reference loop.
func updateParams(w, g, vel []float64, mom, scale, l2 float64) {
	if useAsmKernels && len(w) >= 4 {
		updateParamsAsm(w, g, vel, mom, scale, l2)
		return
	}
	updateParamsGo(w, g, vel, mom, scale, l2)
}

func updateParamsGo(w, g, vel []float64, mom, scale, l2 float64) {
	for i := range w {
		v := mom*vel[i] - scale*(g[i]+l2*w[i])
		vel[i] = v
		w[i] += v
	}
}

// packTranspose writes the Out×In matrix w into dst as In×Out (dst[i][o] =
// w[o][i]), so the forward pass can run as column-contiguous axpyMat calls.
func packTranspose(dst, w []float64, out, in int) {
	for o := 0; o < out; o++ {
		row := w[o*in : o*in+in]
		for i, v := range row {
			dst[i*out+o] = v
		}
	}
}
