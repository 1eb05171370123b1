//go:build gc

#include "textflag.h"

// func lambMomentsAVX2(wd, gd, md, vd, ud *float64, n int, k *lambCoef) (wSq, uSq float64)
//
// LAMB's moment pass over four lanes: VMULPD, VADDPD, VDIVPD and VSQRTPD
// round each lane exactly as the scalar Go operations do, there is no
// FMA, and every expression keeps the Go loop's order and grouping. The
// three sums whose addends may both be NaN take them in the order the
// compiled Go loop does ((1-β1)·g first, then ((1-β2)·g)·g, then
// decay·w), since x86 keeps the first NaN's payload. The squares w² and
// u² are formed four at a time, then added one lane at a time, lane 0
// first, onto the scalar sums in X8 and X9: the element order of the Go
// loop's two chains.
TEXT ·lambMomentsAVX2(SB), NOSPLIT, $0-72
	MOVQ wd+0(FP), DI
	MOVQ gd+8(FP), SI
	MOVQ md+16(FP), DX
	MOVQ vd+24(FP), R8
	MOVQ ud+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ k+48(FP), AX
	VBROADCASTSD 0(AX), Y0     // β1
	VBROADCASTSD 8(AX), Y1     // 1-β1
	VBROADCASTSD 16(AX), Y2    // β2
	VBROADCASTSD 24(AX), Y3    // 1-β2
	VBROADCASTSD 32(AX), Y4    // bc1
	VBROADCASTSD 40(AX), Y5    // bc2
	VBROADCASTSD 48(AX), Y6    // ε
	VBROADCASTSD 56(AX), Y7    // decay
	VXORPD X8, X8, X8          // Σw² = +0
	VXORPD X9, X9, X9          // Σu² = +0
	SHLQ $3, CX                // n in bytes
	XORQ BX, BX                // byte offset of the lanes

loop:
	VMOVUPD (SI)(BX*1), Y10    // g
	VMULPD (DX)(BX*1), Y0, Y11 // β1·m
	VMULPD Y10, Y1, Y12        // (1-β1)·g
	VADDPD Y11, Y12, Y11       // m
	VMOVUPD Y11, (DX)(BX*1)
	VMULPD (R8)(BX*1), Y2, Y12 // β2·v
	VMULPD Y10, Y3, Y13        // (1-β2)·g
	VMULPD Y10, Y13, Y13       // ((1-β2)·g)·g
	VADDPD Y12, Y13, Y12       // v
	VMOVUPD Y12, (R8)(BX*1)
	VDIVPD Y5, Y12, Y12        // v/bc2
	VSQRTPD Y12, Y12
	VADDPD Y6, Y12, Y12        // √(v/bc2)+ε
	VDIVPD Y4, Y11, Y11        // m/bc1
	VDIVPD Y12, Y11, Y11       // m/bc1/(√(v/bc2)+ε)
	VMOVUPD (DI)(BX*1), Y13    // w
	VMULPD Y13, Y7, Y14        // decay·w
	VADDPD Y11, Y14, Y11       // u
	VMOVUPD Y11, (R9)(BX*1)
	VMULPD Y13, Y13, Y13       // w²
	VMULPD Y11, Y11, Y11       // u²

	VADDSD X13, X8, X8         // lane 0
	VADDSD X11, X9, X9
	VPERMILPD $1, X13, X14
	VPERMILPD $1, X11, X15
	VADDSD X14, X8, X8         // lane 1
	VADDSD X15, X9, X9
	VEXTRACTF128 $1, Y13, X13
	VEXTRACTF128 $1, Y11, X11
	VADDSD X13, X8, X8         // lane 2
	VADDSD X11, X9, X9
	VPERMILPD $1, X13, X14
	VPERMILPD $1, X11, X15
	VADDSD X14, X8, X8         // lane 3
	VADDSD X15, X9, X9

	ADDQ $32, BX
	CMPQ BX, CX
	JLT  loop

	VMOVSD X8, wSq+56(FP)
	VMOVSD X9, uSq+64(FP)
	VZEROUPPER
	RET

// func lambApplyAVX2(wd, ud *float64, n int, s float64)
//
// w = w - s·u over four lanes: VMULPD rounds the product, then VSUBPD
// subtracts it, as the Go loop does.
TEXT ·lambApplyAVX2(SB), NOSPLIT, $0-32
	MOVQ wd+0(FP), DI
	MOVQ ud+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD s+24(FP), Y0
	SHLQ $3, CX                // n in bytes
	XORQ BX, BX

loop:
	VMULPD (SI)(BX*1), Y0, Y1  // s·u
	VMOVUPD (DI)(BX*1), Y2
	VSUBPD Y1, Y2, Y2          // w - s·u
	VMOVUPD Y2, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  loop

	VZEROUPPER
	RET
