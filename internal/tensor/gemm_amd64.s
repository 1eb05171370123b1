//go:build gc

#include "textflag.h"

// func gemm4x8AVX2(c, a, b *float64, k, ldb, ldc, ars, aks int)
//
// C[0:4, 0:8] = A[0:4, 0:k] · B[0:k, 0:8], where A's element (i, kk)
// is at a[i*ars + kk*aks] (row-major A has strides (k, 1), A stored
// transposed has (1, m)), B's rows are ldb apart and C's ldc apart. The
// accumulators start at +0 and C is only stored, never read. Per k, each
// of the four A elements is tested (bits<<1 == 0 means ±0, which is
// skipped exactly as matmulBlock skips it; NaN is not skipped),
// broadcast, multiplied into the two 4-lane halves of B's row with VMULPD
// and added to the row's accumulators with VADDPD. Lanes run over output
// columns, never over k, so every element gets matmulBlock's ascending-k
// sum of separately rounded products. C's stride is needed only for the
// final stores, so it is loaded after the k loop.
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldb+32(FP), R8
	MOVQ ars+48(FP), AX
	MOVQ aks+56(FP), R14
	SHLQ $3, R8                // row stride of B in bytes
	SHLQ $3, AX                // row stride of A in bytes
	SHLQ $3, R14               // k stride of A in bytes
	LEAQ (SI)(AX*1), R9        // A row 1
	LEAQ (R9)(AX*1), R10       // A row 2
	LEAQ (R10)(AX*1), R11      // A row 3

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ BX, BX                // byte offset of column kk in A's rows

loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9

	MOVQ (SI)(BX*1), AX
	ADDQ AX, AX
	JEQ  row1
	VBROADCASTSD (SI)(BX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1

row1:
	MOVQ (R9)(BX*1), AX
	ADDQ AX, AX
	JEQ  row2
	VBROADCASTSD (R9)(BX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3

row2:
	MOVQ (R10)(BX*1), AX
	ADDQ AX, AX
	JEQ  row3
	VBROADCASTSD (R10)(BX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5

row3:
	MOVQ (R11)(BX*1), AX
	ADDQ AX, AX
	JEQ  next
	VBROADCASTSD (R11)(BX*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7

next:
	ADDQ R8, DX
	ADDQ R14, BX
	DECQ CX
	JNZ  loop

	MOVQ c+0(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $3, R8                // row stride of C in bytes
	LEAQ (DI)(R8*1), R12       // C row 1
	LEAQ (R12)(R8*1), R13      // C row 2
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, 32(R12)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (R13)(R8*1)
	VMOVUPD Y7, 32(R13)(R8*1)
	VZEROUPPER
	RET

// func gemm4x16AVX512(c, a, b *float64, k, ldb, ldc, ars, aks int)
//
// C[0:4, 0:16] = A[0:4, 0:k] · B[0:k, 0:16]: gemm4x8AVX2 on 8-lane Z
// registers, with the same arguments, the same ±0 test on each A element
// and the same VMULPD then VADDPD per lane, so each of the 16 columns
// gets the same sum as in the 8-wide tile. It uses only Z0–Z11, whose
// upper halves VZEROUPPER clears; Z16–Z31 would stay dirty after it. No
// FMA and no mask registers.
TEXT ·gemm4x16AVX512(SB), NOSPLIT, $0-64
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldb+32(FP), R8
	MOVQ ars+48(FP), AX
	MOVQ aks+56(FP), R14
	SHLQ $3, R8                // row stride of B in bytes
	SHLQ $3, AX                // row stride of A in bytes
	SHLQ $3, R14               // k stride of A in bytes
	LEAQ (SI)(AX*1), R9        // A row 1
	LEAQ (R9)(AX*1), R10       // A row 2
	LEAQ (R10)(AX*1), R11      // A row 3

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ BX, BX                // byte offset of column kk in A's rows

loop:
	VMOVUPD (DX), Z8
	VMOVUPD 64(DX), Z9

	MOVQ (SI)(BX*1), AX
	ADDQ AX, AX
	JEQ  row1
	VBROADCASTSD (SI)(BX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z0, Z0
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z1, Z1

row1:
	MOVQ (R9)(BX*1), AX
	ADDQ AX, AX
	JEQ  row2
	VBROADCASTSD (R9)(BX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z2, Z2
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z3, Z3

row2:
	MOVQ (R10)(BX*1), AX
	ADDQ AX, AX
	JEQ  row3
	VBROADCASTSD (R10)(BX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z4, Z4
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z5, Z5

row3:
	MOVQ (R11)(BX*1), AX
	ADDQ AX, AX
	JEQ  next
	VBROADCASTSD (R11)(BX*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z6, Z6
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z7, Z7

next:
	ADDQ R8, DX
	ADDQ R14, BX
	DECQ CX
	JNZ  loop

	MOVQ c+0(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $3, R8                // row stride of C in bytes
	LEAQ (DI)(R8*1), R12       // C row 1
	LEAQ (R12)(R8*1), R13      // C row 2
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (R12)
	VMOVUPD Z3, 64(R12)
	VMOVUPD Z4, (R13)
	VMOVUPD Z5, 64(R13)
	VMOVUPD Z6, (R13)(R8*1)
	VMOVUPD Z7, 64(R13)(R8*1)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
