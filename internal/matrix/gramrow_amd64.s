//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of gramRow. gramRowGo (blocked.go) is the specification and
// every result here is Float64bits-identical to it: one YMM accumulator per
// column holds dotUnrolled's four stride-4 partial sums s0..s3 in its lanes,
// each step is a separate VMULPD and VADDPD (never FMA: a fused rounding
// differs), the n mod 4 tail rows are added into lane 0 alone, and the lanes
// combine as (s0+s1)+(s2+s3) before out[m] + dot.
//
// A pass keeps eight columns in flight sharing the cj load: one accumulator
// is a single dependent add chain and runs no faster than the scalar code's
// four; eight independent chains are what fill both FP ports. The (at most
// seven) columns left over run four, two and one at a time.
//
// Registers: SI cj, R8 first column of the pass, R9 column stride in bytes,
// R10 3·stride, R11 R8+4·stride, R12 n/4, CX n mod 4, DX columns left,
// DI out cursor, AX cj cursor, BX loop counter. Walking a column to its end
// advances R8 (and R11) by exactly one stride.

// STEP adds the four products of the cj vector in Y8 into one accumulator.
#define STEP(col, acc, tmp) \
	VMULPD col, Y8, tmp; \
	VADDPD tmp, acc, acc

// TAIL adds one product of the cj scalar in X8 into lane 0 of an accumulator
// and leaves lanes 1..3 as they are.
#define TAIL(col, accx, accy, tmpx, tmpy) \
	VMULSD   col, X8, tmpx;    \
	VADDSD   tmpx, accx, tmpx; \
	VBLENDPD $1, tmpy, accy, accy

// FOLD2 reduces the accumulators of two adjacent columns to their two dots
// in the low half of the first: [(a0+a1)+(a2+a3), (b0+b1)+(b2+b3)].
#define FOLD2(ya, xa, yb) \
	VHADDPD      yb, ya, ya; \
	VEXTRACTF128 $1, ya, X9; \
	VADDPD       X9, xa, xa

// func gramRowAVX2(cj, cols *float64, n, m int, out *float64)
TEXT ·gramRowAVX2(SB), NOSPLIT, $0-40
	MOVQ cj+0(FP), SI
	MOVQ cols+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ m+24(FP), DX
	MOVQ out+32(FP), DI
	MOVQ CX, R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ CX, R12
	SHRQ $2, R12
	ANDQ $3, CX

pass8:
	CMPQ   DX, $8
	JLT    pass4
	LEAQ   (R8)(R9*4), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   R12, BX
	TESTQ  BX, BX
	JZ     tail8

vec8:
	VMOVUPD (AX), Y8
	STEP((R8), Y0, Y9)
	STEP((R8)(R9*1), Y1, Y10)
	STEP((R8)(R9*2), Y2, Y11)
	STEP((R8)(R10*1), Y3, Y12)
	STEP((R11), Y4, Y13)
	STEP((R11)(R9*1), Y5, Y14)
	STEP((R11)(R9*2), Y6, Y15)
	STEP((R11)(R10*1), Y7, Y9)
	ADDQ    $32, AX
	ADDQ    $32, R8
	ADDQ    $32, R11
	DECQ    BX
	JNZ     vec8

tail8:
	MOVQ  CX, BX
	TESTQ BX, BX
	JZ    fold8

tail8loop:
	VMOVSD (AX), X8
	TAIL((R8), X0, Y0, X9, Y9)
	TAIL((R8)(R9*1), X1, Y1, X10, Y10)
	TAIL((R8)(R9*2), X2, Y2, X11, Y11)
	TAIL((R8)(R10*1), X3, Y3, X12, Y12)
	TAIL((R11), X4, Y4, X13, Y13)
	TAIL((R11)(R9*1), X5, Y5, X14, Y14)
	TAIL((R11)(R9*2), X6, Y6, X15, Y15)
	TAIL((R11)(R10*1), X7, Y7, X9, Y9)
	ADDQ   $8, AX
	ADDQ   $8, R8
	ADDQ   $8, R11
	DECQ   BX
	JNZ    tail8loop

fold8:
	FOLD2(Y0, X0, Y1)
	FOLD2(Y2, X2, Y3)
	FOLD2(Y4, X4, Y5)
	FOLD2(Y6, X6, Y7)
	VINSERTF128 $1, X2, Y0, Y0
	VINSERTF128 $1, X6, Y4, Y4
	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VADDPD      Y0, Y8, Y8
	VADDPD      Y4, Y9, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	LEAQ        (R8)(R10*2), R8
	ADDQ        R9, R8
	ADDQ        $64, DI
	SUBQ        $8, DX
	JMP         pass8

pass4:
	CMPQ   DX, $4
	JLT    pass2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   R12, BX
	TESTQ  BX, BX
	JZ     tail4

vec4:
	VMOVUPD (AX), Y8
	STEP((R8), Y0, Y9)
	STEP((R8)(R9*1), Y1, Y10)
	STEP((R8)(R9*2), Y2, Y11)
	STEP((R8)(R10*1), Y3, Y12)
	ADDQ    $32, AX
	ADDQ    $32, R8
	DECQ    BX
	JNZ     vec4

tail4:
	MOVQ  CX, BX
	TESTQ BX, BX
	JZ    fold4

tail4loop:
	VMOVSD (AX), X8
	TAIL((R8), X0, Y0, X9, Y9)
	TAIL((R8)(R9*1), X1, Y1, X10, Y10)
	TAIL((R8)(R9*2), X2, Y2, X11, Y11)
	TAIL((R8)(R10*1), X3, Y3, X12, Y12)
	ADDQ   $8, AX
	ADDQ   $8, R8
	DECQ   BX
	JNZ    tail4loop

fold4:
	FOLD2(Y0, X0, Y1)
	FOLD2(Y2, X2, Y3)
	VINSERTF128 $1, X2, Y0, Y0
	VMOVUPD     (DI), Y8
	VADDPD      Y0, Y8, Y8
	VMOVUPD     Y8, (DI)
	ADDQ        R10, R8
	ADDQ        $32, DI
	SUBQ        $4, DX

pass2:
	CMPQ   DX, $2
	JLT    pass1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, AX
	MOVQ   R12, BX
	TESTQ  BX, BX
	JZ     tail2

vec2:
	VMOVUPD (AX), Y8
	STEP((R8), Y0, Y9)
	STEP((R8)(R9*1), Y1, Y10)
	ADDQ    $32, AX
	ADDQ    $32, R8
	DECQ    BX
	JNZ     vec2

tail2:
	MOVQ  CX, BX
	TESTQ BX, BX
	JZ    fold2

tail2loop:
	VMOVSD (AX), X8
	TAIL((R8), X0, Y0, X9, Y9)
	TAIL((R8)(R9*1), X1, Y1, X10, Y10)
	ADDQ   $8, AX
	ADDQ   $8, R8
	DECQ   BX
	JNZ    tail2loop

fold2:
	FOLD2(Y0, X0, Y1)
	VMOVUPD (DI), X8
	VADDPD  X0, X8, X8
	VMOVUPD X8, (DI)
	ADDQ    R9, R8
	ADDQ    $16, DI
	SUBQ    $2, DX

pass1:
	TESTQ  DX, DX
	JZ     done
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R12, BX
	TESTQ  BX, BX
	JZ     tail1

vec1:
	VMOVUPD (AX), Y8
	STEP((R8), Y0, Y9)
	ADDQ    $32, AX
	ADDQ    $32, R8
	DECQ    BX
	JNZ     vec1

tail1:
	MOVQ  CX, BX
	TESTQ BX, BX
	JZ    fold1

tail1loop:
	VMOVSD (AX), X8
	TAIL((R8), X0, Y0, X9, Y9)
	ADDQ   $8, AX
	ADDQ   $8, R8
	DECQ   BX
	JNZ    tail1loop

fold1:
	// Folding the accumulator with itself leaves the dot in both low lanes.
	FOLD2(Y0, X0, Y0)
	VMOVSD (DI), X8
	VADDSD X0, X8, X8
	VMOVSD X8, (DI)

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5) and the OS saves
// the YMM state across context switches: OSXSAVE and AVX in leaf 1 ECX
// (bits 27, 28), and XCR0 bits 1 and 2 through XGETBV.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JB     no
	MOVL   $1, AX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	SHRL   $5, BX
	ANDL   $1, BX
	MOVB   BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
