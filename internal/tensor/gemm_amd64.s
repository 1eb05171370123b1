//go:build gc

#include "textflag.h"

// func gemm4x8AVX2(c, a, b *float64, k, ldb, ldc, ars, aks int)
//
// C[0:4, 0:8] += A[0:4, 0:k] · B[0:k, 0:8], where A's element (i, kk)
// is at a[i*ars + kk*aks] (row-major A has strides (k, 1), A stored
// transposed has (1, m)), B's rows are ldb apart and C's ldc apart. Per
// k, each of the four A elements is tested (bits<<1 == 0 means ±0, which
// is skipped exactly as matmulBlock skips it; NaN is not skipped),
// broadcast, multiplied into the two 4-lane halves of B's row with VMULPD
// and added to the row's accumulators with VADDPD. Lanes run over output
// columns, never over k, so every element gets matmulBlock's ascending-k
// sum of separately rounded products. C's stride is used only to load
// and store the accumulators, so R8 holds it around the k loop and B's
// stride inside it.
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldc+40(FP), R8
	MOVQ ars+48(FP), AX
	MOVQ aks+56(FP), R14
	SHLQ $3, R8                // row stride of C in bytes
	SHLQ $3, AX                // row stride of A in bytes
	SHLQ $3, R14               // k stride of A in bytes
	LEAQ (SI)(AX*1), R9        // A row 1
	LEAQ (R9)(AX*1), R10       // A row 2
	LEAQ (R10)(AX*1), R11      // A row 3
	LEAQ (DI)(R8*1), R12       // C row 1
	LEAQ (R12)(R8*1), R13      // C row 2

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R12), Y2
	VMOVUPD 32(R12), Y3
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD (R13)(R8*1), Y6
	VMOVUPD 32(R13)(R8*1), Y7

	MOVQ ldb+32(FP), R8
	SHLQ $3, R8                // row stride of B in bytes
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

	MOVQ ldc+40(FP), R8
	SHLQ $3, R8                // row stride of C in bytes
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
