//go:build gc

package tensor

// hasAVX2 and hasAVX512 say what this host's CPU and OS can run. They
// come from one CPUID probe at start-up (probeSIMD): on a VM every CPUID
// exits to the hypervisor, so nothing probes again.
var hasAVX2, hasAVX512 = probeSIMD()

// gemmSIMD reports whether the GEMMs run the assembly tiles, and gemm16
// whether they run the 16-column AVX-512 tile beside the 8-column AVX2
// one. The probe sets both; only tests switch them off.
var gemmSIMD, gemm16 = hasAVX2, hasAVX512

// HasAVX2 reports whether this host can run AVX2 code: the CPU must have
// AVX2 and the OS must save the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling both SSE and AVX state). optim's LAMB
// kernel asks it too.
func HasAVX2() bool { return hasAVX2 }

// probeSIMD returns whether the host can run AVX2 code (see HasAVX2) and
// whether it can also run AVX-512 code: the CPU must have AVX512F and
// XCR0 must enable the opmask, ZMM_Hi256 and Hi16_ZMM state as well, the
// check Go's runtime makes.
func probeSIMD() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	const sseAVXState, zmmState = 1<<1 | 1<<2, 1<<5 | 1<<6 | 1<<7
	xcr0 := xgetbv()
	if xcr0&sseAVXState != sseAVXState {
		return false, false
	}
	const avx2Bit, avx512F = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&avx2Bit != 0
	return avx2, avx2 && ebx&avx512F != 0 && xcr0&zmmState == zmmState
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gemm4x8AVX2 stores the product of the 4×k block of A at a and the k×8
// block of B at b (rows ldb apart) into the 4×8 block of C at c (rows
// ldc apart), which it never reads. A's element (i, kk) is read at
// a[i*ars+kk*aks], so the kernel takes A row-major (ars = k, aks = 1)
// or stored transposed (ars = 1, aks = m) without a copy. k must be
// positive. Implemented in gemm_amd64.s.
//
//go:noescape
func gemm4x8AVX2(c, a, b *float64, k, ldb, ldc, ars, aks int)

// gemm4x16AVX512 is gemm4x8AVX2 over a 4×16 block of C, on AVX-512
// registers. Implemented in gemm_amd64.s.
//
//go:noescape
func gemm4x16AVX512(c, a, b *float64, k, ldb, ldc, ars, aks int)

// matmulRowsSIMD computes rows [lo, hi) of the (m, n) product like
// matmulBlock over all columns, bit for bit, with A's element (i, kk) at
// a[i*ars+kk*aks]. It writes every element of those rows and reads none
// of them.
// Each 4-row group runs 16-column tiles (with gemm16), then 8-column
// tiles over the columns left before n &^ 7, all reading A and B in
// place; the n mod 8 tail columns run gemmTail, and the trailing hi-lo
// mod 4 rows run matmulBlock over their first n &^ 7 columns and
// gemmTail over the rest. With k = 0 the rows are +0. Callers must have
// checked gemmSIMD.
func matmulRowsSIMD(dst, a, b []float64, lo, hi, k, n, ars, aks int) {
	if k == 0 {
		clear(dst[lo*n : hi*n])
		return
	}
	n8 := n &^ 7
	i := lo
	for ; i+4 <= hi && n8 > 0; i += 4 {
		// Index the first and last A element and the last B and C
		// element of every tile, so a bad shape panics here rather than
		// reading or writing past a slice in assembly.
		_ = a[(i+3)*ars+(k-1)*aks]
		j := 0
		if gemm16 {
			for ; j+16 <= n; j += 16 {
				_ = b[(k-1)*n+j+15]
				_ = dst[(i+3)*n+j+15]
				gemm4x16AVX512(&dst[i*n+j], &a[i*ars], &b[j], k, n, n, ars, aks)
			}
		}
		for ; j < n8; j += 8 {
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

// gemmTail writes columns [j0, j1) of rows [lo, hi) of the product of A
// and B into C, with B's element (kk, j) at b[kk*ldb+j] and C's (i, j) at
// dst[i*ldc+j]. It serves the fewer than eight columns the tiles leave,
// where matmulBlock would call addScaledRow once per row and k for a row
// of one to seven elements. Each element instead sums in a register from
// +0, four rows at a time (tail4) so that four chains run side by side,
// with matmulBlock's arithmetic: ascending k, a zero A element skipped,
// the product rounded on its own.
func gemmTail(dst, a, b []float64, lo, hi, k, ldb, ldc, j0, j1, ars, aks int) {
	for j := j0; j < j1; j++ {
		i := lo
		for ; i+4 <= hi; i += 4 {
			d := dst[i*ldc+j:]
			d[0], d[ldc], d[2*ldc], d[3*ldc] = tail4(a[i*ars:], b[j:], k, ldb, ars, aks)
		}
		for ; i < hi; i++ {
			var c float64
			for kk, ak, bk := 0, i*ars, j; kk < k; kk, ak, bk = kk+1, ak+aks, bk+ldb {
				if av := a[ak]; av != 0 {
					c += float64(av * b[bk])
				}
			}
			dst[i*ldc+j] = c
		}
	}
}

// tail4 returns the products of four rows of A, starting at a[0] and ars
// apart, with the column of B that starts at b[0], as gemmTail sums them
// from +0; A's element (i, kk) is at a[i*ars+kk*aks], so A is read
// row-major or transposed alike.
func tail4(a, b []float64, k, ldb, ars, aks int) (c0, c1, c2, c3 float64) {
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

// matmulTBStrips computes strips [lo, hi) of the (m, n) product A·Uᵀ of
// row-major A (m, k) and U (n, k) into dst, like matmulBlock on Uᵀ bit
// for bit, writing every element of the strips' columns. Strip s covers
// output columns sw·s to sw·s+sw-1, where sw is 16 with gemm16 and 8
// without. A last strip narrower than sw runs as the 8-column strips it
// holds, then one narrower than 8 (tbStrip). panel must hold at least
// sw·k elements; k must be positive. Callers must have checked gemmSIMD.
func matmulTBStrips(dst, a, u, panel []float64, lo, hi, m, k, n, sw int) {
	for s := lo; s < hi; s++ {
		for j0, j1 := sw*s, min(sw*(s+1), n); j0 < j1; {
			w := j1 - j0
			if w > 8 && w < 16 {
				w = 8
			}
			tbStrip(dst, a, u, panel[:k*w], m, k, n, j0, w)
			j0 += w
		}
	}
}

// tbStrip computes output columns [j0, j0+w) of A·Uᵀ through the k×w
// panel p. A 16- or 8-column strip copies its w rows of U, read in step
// and each sequentially, into p (so panel row kk is Uᵀ's row kk over
// those columns), then runs the tile of its width over every 4-row
// group, with B's rows w apart and C's n apart; the trailing m mod 4
// rows run the Go row-stream loop over the same panel. A strip narrower
// than 8 copies its rows one at a time and runs gemmTail for every row.
func tbStrip(dst, a, u, p []float64, m, k, n, j0, w int) {
	rows := u[j0*k : (j0+w)*k]
	switch w {
	case 16:
		pack16(p, rows)
	case 8:
		pack8(p, rows)
	default:
		for c := 0; c < w; c++ {
			for kk, v := range rows[c*k : (c+1)*k] {
				p[kk*w+c] = v
			}
		}
		gemmTail(dst[j0:], a, p, 0, m, k, w, n, 0, w, k, 1)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		// As in matmulRowsSIMD: index the tile's last A and C elements
		// so a bad shape panics here, not in assembly.
		_ = a[(i+3)*k+k-1]
		_ = dst[(i+3)*n+j0+w-1]
		if w == 16 {
			gemm4x16AVX512(&dst[i*n+j0], &a[i*k], &p[0], k, 16, n, k, 1)
		} else {
			gemm4x8AVX2(&dst[i*n+j0], &a[i*k], &p[0], k, 8, n, k, 1)
		}
	}
	for ; i < m; i++ {
		drow := dst[i*n+j0 : i*n+j0+w]
		clear(drow)
		for kk, av := range a[i*k : (i+1)*k] {
			if av != 0 {
				addScaledRow(drow, p[kk*w:(kk+1)*w], av)
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

// pack16 is pack8 for the sixteen k-long rows of u and the k×16 panel p.
func pack16(p, u []float64) {
	k := len(u) / 16
	r0 := u[:k]
	r1 := u[k : 2*k][:len(r0)]
	r2 := u[2*k : 3*k][:len(r0)]
	r3 := u[3*k : 4*k][:len(r0)]
	r4 := u[4*k : 5*k][:len(r0)]
	r5 := u[5*k : 6*k][:len(r0)]
	r6 := u[6*k : 7*k][:len(r0)]
	r7 := u[7*k : 8*k][:len(r0)]
	r8 := u[8*k : 9*k][:len(r0)]
	r9 := u[9*k : 10*k][:len(r0)]
	r10 := u[10*k : 11*k][:len(r0)]
	r11 := u[11*k : 12*k][:len(r0)]
	r12 := u[12*k : 13*k][:len(r0)]
	r13 := u[13*k : 14*k][:len(r0)]
	r14 := u[14*k : 15*k][:len(r0)]
	r15 := u[15*k : 16*k][:len(r0)]
	for kk, v := range r0 {
		q := p[16*kk : 16*kk+16 : 16*kk+16]
		q[0], q[1], q[2], q[3] = v, r1[kk], r2[kk], r3[kk]
		q[4], q[5], q[6], q[7] = r4[kk], r5[kk], r6[kk], r7[kk]
		q[8], q[9], q[10], q[11] = r8[kk], r9[kk], r10[kk], r11[kk]
		q[12], q[13], q[14], q[15] = r12[kk], r13[kk], r14[kk], r15[kk]
	}
}
