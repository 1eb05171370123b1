//go:build gc

package tensor

// gemmSIMD reports whether matMulInto runs the AVX2 micro-kernel. It is
// fixed at start-up from HasAVX2.
var gemmSIMD = HasAVX2()

// HasAVX2 reports whether this host can run AVX2 code: the CPU must have
// AVX2 and the OS must save the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling both SSE and AVX state). It is the one
// CPUID probe of the module; optim's LAMB kernel asks it too.
func HasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseAVXState = 1<<1 | 1<<2
	if xgetbv()&sseAVXState != sseAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gemm4x8AVX2 adds the product of the 4×k block of A at a and the k×8
// block of B at b (rows ldb apart) into the 4×8 block of C at c (rows
// ldc apart). A's element (i, kk) is read at a[i*ars+kk*aks], so the
// kernel takes A row-major (ars = k, aks = 1) or stored transposed
// (ars = 1, aks = m) without a copy. k must be positive. Implemented in
// gemm_amd64.s.
//
//go:noescape
func gemm4x8AVX2(c, a, b *float64, k, ldb, ldc, ars, aks int)

// matmulRowsSIMD computes rows [lo, hi) of the (m, n) product like
// matmulBlock over all columns, bit for bit, with A's element (i, kk) at
// a[i*ars+kk*aks]. Full 4-row × 8-column tiles go to the AVX2
// micro-kernel, which reads A and B in place; the n mod 8 tail columns
// run gemmTail, and the trailing hi-lo mod 4 rows run matmulBlock over
// their first n &^ 7 columns and gemmTail over the rest. Callers must
// have checked gemmSIMD.
func matmulRowsSIMD(dst, a, b []float64, lo, hi, k, n, ars, aks int) {
	if k == 0 {
		return
	}
	n8 := n &^ 7
	i := lo
	for ; i+4 <= hi && n8 > 0; i += 4 {
		// Index the first and last A element and the last B and C
		// element of every block the kernel touches, so a bad shape
		// panics here rather than reading or writing past a slice in
		// assembly.
		_ = a[(i+3)*ars+(k-1)*aks]
		for j := 0; j < n8; j += 8 {
			_ = b[(k-1)*n+j+7]
			_ = dst[(i+3)*n+j+7]
			gemm4x8AVX2(&dst[i*n+j], &a[i*ars], &b[j], k, n, n, ars, aks)
		}
		gemmTail(dst, a, b, i, i+4, k, n, n, n8, n, ars, aks)
	}
	if i < hi {
		if n8 > 0 {
			matmulBlock(dst, a, b, i, hi, k, n, 0, n8, ars, aks)
		}
		gemmTail(dst, a, b, i, hi, k, n, n, n8, n, ars, aks)
	}
}

// gemmTail adds columns [j0, j1) of rows [lo, hi) of the product of A
// and B into C, with B's element (kk, j) at b[kk*ldb+j] and C's (i, j) at
// dst[i*ldc+j]. It serves the fewer than eight columns the micro-kernel
// leaves, where matmulBlock would call addScaledRow once per row and k
// for a row of one to seven elements. Each element instead accumulates
// in a register, four rows at a time (tail4) so that four chains run
// side by side, with matmulBlock's arithmetic: ascending k, a zero A
// element skipped, the product rounded on its own.
func gemmTail(dst, a, b []float64, lo, hi, k, ldb, ldc, j0, j1, ars, aks int) {
	for j := j0; j < j1; j++ {
		i := lo
		for ; i+4 <= hi; i += 4 {
			d := dst[i*ldc+j:]
			d[0], d[ldc], d[2*ldc], d[3*ldc] = tail4(a[i*ars:], b[j:], k, ldb, ars, aks,
				d[0], d[ldc], d[2*ldc], d[3*ldc])
		}
		for ; i < hi; i++ {
			c := dst[i*ldc+j]
			for kk, ak, bk := 0, i*ars, j; kk < k; kk, ak, bk = kk+1, ak+aks, bk+ldb {
				if av := a[ak]; av != 0 {
					c += float64(av * b[bk])
				}
			}
			dst[i*ldc+j] = c
		}
	}
}

// tail4 returns c0..c3 plus the products of four rows of A, starting at
// a[0] and ars apart, with the column of B that starts at b[0], as
// gemmTail sums them; A's element (i, kk) is at a[i*ars+kk*aks], so A is
// read row-major or transposed alike.
func tail4(a, b []float64, k, ldb, ars, aks int, c0, c1, c2, c3 float64) (float64, float64, float64, float64) {
	for kk, ak, bk := 0, 0, 0; kk < k; kk, ak, bk = kk+1, ak+aks, bk+ldb {
		bv := b[bk]
		if av := a[ak]; av != 0 {
			c0 += float64(av * bv)
		}
		if av := a[ak+ars]; av != 0 {
			c1 += float64(av * bv)
		}
		if av := a[ak+2*ars]; av != 0 {
			c2 += float64(av * bv)
		}
		if av := a[ak+3*ars]; av != 0 {
			c3 += float64(av * bv)
		}
	}
	return c0, c1, c2, c3
}

// matmulTBStrips computes 8-column strips [lo, hi) of the (m, n) product
// A·Uᵀ of row-major A (m, k) and U (n, k) into dst, like matmulBlock on
// Uᵀ bit for bit. Strip s covers output columns 8s to 8s+7: it copies
// rows 8s..8s+7 of U, each a sequential read, into the k×8 panel (so
// panel row kk is Uᵀ's row kk over those columns), then runs the AVX2
// micro-kernel over every 4-row tile with B's rows 8 apart and C's n
// apart; the trailing m mod 4 rows run the Go row-stream loop over the
// same panel. A last strip narrower than 8 runs gemmTail over its panel
// for every row. panel
// must hold at least 8k elements; k must be positive. Callers must have
// checked gemmSIMD.
func matmulTBStrips(dst, a, u, panel []float64, lo, hi, m, k, n int) {
	for s := lo; s < hi; s++ {
		j0 := 8 * s
		w := min(8, n-j0)
		p := panel[:k*w]
		if w < 8 {
			for c := 0; c < w; c++ {
				for kk, v := range u[(j0+c)*k : (j0+c+1)*k] {
					p[kk*w+c] = v
				}
			}
			gemmTail(dst[j0:], a, p, 0, m, k, w, n, 0, w, k, 1)
			continue
		}
		pack8(p, u[j0*k:(j0+8)*k])
		i := 0
		for ; i+4 <= m; i += 4 {
			// As in matmulRowsSIMD: index the tile's last A and C
			// elements so a bad shape panics here, not in assembly.
			_ = a[(i+3)*k+k-1]
			_ = dst[(i+3)*n+j0+7]
			gemm4x8AVX2(&dst[i*n+j0], &a[i*k], &p[0], k, 8, n, k, 1)
		}
		for ; i < m; i++ {
			drow := dst[i*n+j0 : i*n+j0+8]
			for kk, av := range a[i*k : (i+1)*k] {
				if av != 0 {
					addScaledRow(drow, p[kk*8:(kk+1)*8], av)
				}
			}
		}
	}
}

// pack8 copies the eight k-long rows of u into the k×8 panel p. It reads
// the rows in step, so each panel row is written whole: twice as fast as
// copying one row at a time down a panel column. Reslicing every row to
// len(r0) lets the compiler drop the loop's bounds checks on them.
func pack8(p, u []float64) {
	k := len(u) / 8
	r0 := u[:k]
	r1 := u[k : 2*k][:len(r0)]
	r2 := u[2*k : 3*k][:len(r0)]
	r3 := u[3*k : 4*k][:len(r0)]
	r4 := u[4*k : 5*k][:len(r0)]
	r5 := u[5*k : 6*k][:len(r0)]
	r6 := u[6*k : 7*k][:len(r0)]
	r7 := u[7*k : 8*k][:len(r0)]
	for kk, v := range r0 {
		q := p[8*kk : 8*kk+8 : 8*kk+8]
		q[0], q[1], q[2], q[3] = v, r1[kk], r2[kk], r3[kk]
		q[4], q[5], q[6], q[7] = r4[kk], r5[kk], r6[kk], r7[kk]
	}
}
