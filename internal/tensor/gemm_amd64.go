//go:build gc

package tensor

// gemmSIMD reports whether matMulInto runs the AVX2 micro-kernel. It is
// fixed at start-up from CPUID: the CPU must have AVX2 and the OS must
// save the YMM registers across context switches (OSXSAVE set and XCR0
// enabling both SSE and AVX state).
var gemmSIMD = hasAVX2()

func hasAVX2() bool {
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
// block of B at b (rows n apart) into the 4×8 block of C at c (rows n
// apart). A's element (i, kk) is read at a[i*ars+kk*aks], so the kernel
// takes A row-major (ars = k, aks = 1) or stored transposed (ars = 1,
// aks = m) without a copy. k must be positive. Implemented in
// gemm_amd64.s.
//
//go:noescape
func gemm4x8AVX2(c, a, b *float64, k, n, ars, aks int)

// matmulRowsSIMD computes rows [lo, hi) of the (m, n) product like
// matmulBlock over all columns, bit for bit, with A's element (i, kk) at
// a[i*ars+kk*aks]. Full 4-row × 8-column tiles go to the AVX2
// micro-kernel, which reads A and B in place; the trailing hi-lo mod 4
// rows and n mod 8 columns run matmulBlock over just those elements.
// Callers must have checked gemmSIMD.
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
			gemm4x8AVX2(&dst[i*n+j], &a[i*ars], &b[j], k, n, ars, aks)
		}
		if n8 < n {
			matmulBlock(dst, a, b, i, i+4, k, n, n8, n, ars, aks)
		}
	}
	if i < hi {
		matmulBlock(dst, a, b, i, hi, k, n, 0, n, ars, aks)
	}
}
