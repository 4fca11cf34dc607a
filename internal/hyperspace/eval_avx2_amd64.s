#include "textflag.h"

// AVX2 row kernels for the block evaluator. Each processes n float64
// lanes (n a positive multiple of 4, guaranteed by the Go wrappers),
// four per iteration, with unaligned loads/stores — row starts are only
// 8-byte aligned in general.
//
// Bit-identity contract: every kernel performs, per lane, exactly the
// floating-point operations of its portable Go loop in the same
// association order, using separate VMULPD/VADDPD instructions — never
// FMA, which would skip the intermediate rounding Go's unfused
// left-to-right evaluation performs. Multiplication and addition
// operand order within one instruction is irrelevant to the result
// (IEEE 754 is commutative bit-for-bit for both), so only the operation
// *sequence* matters, and it is the Go loop's.

// func evalMulToAVX2(dst, a, b *float64, n int)
// dst[s] = a[s] * b[s]
TEXT ·evalMulToAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
loop:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalMulPairAVX2(dst, a, b *float64, n int)
// dst[s] = (dst[s] * a[s]) * b[s]
TEXT ·evalMulPairAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
loop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y2
	VMULPD  Y1, Y0, Y0
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalMulAVX2(dst, a *float64, n int)
// dst[s] *= a[s]
TEXT ·evalMulAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
loop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalAddToAVX2(dst, a, b *float64, n int)
// dst[s] = a[s] + b[s]
TEXT ·evalAddToAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
loop:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalAddAVX2(dst, a *float64, n int)
// dst[s] += a[s]
TEXT ·evalAddAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
loop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalMulSumAVX2(dst, a, b *float64, n int)
// dst[s] *= a[s] + b[s] — the sum rounds first, then the product.
TEXT ·evalMulSumAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
loop:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalAddMulAVX2(dst, a, b *float64, n int)
// dst[s] += a[s] * b[s] — the product rounds first, then the sum.
TEXT ·evalAddMulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
loop:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD (DI), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func evalAddMul2AVX2(dst, a, b, c *float64, n int)
// dst[s] += (a[s] * b[s]) * c[s]
TEXT ·evalAddMul2AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), BX
	MOVQ n+32(FP), CX
loop:
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD (BX), Y1
	VMULPD  Y1, Y0, Y0
	VMOVUPD (DI), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET
