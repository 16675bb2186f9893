//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 bodies of the row kernels. The Go bodies in rowkernels.go are the
// specification and every result here is Float64bits-identical to them: each
// lane runs one element's (or, in normSq4AVX2, one row's) scalar expression
// with the same operands in the same order, one separate VMULPD, VADDPD or
// VSUBPD per rounding of the Go code (never FMA: a fused rounding differs),
// and the n mod 4 tail runs the same steps one element at a time.

// func normSq4AVX2(r0, r1, r2, r3 *float64, n int, out *float64)
//
// Four rows, one accumulator lane each: a step loads four elements of every
// row, transposes the 4×4 so that one register holds element k of all four
// rows, and adds the four squares to the accumulator in k order, exactly the
// sequential sum NormSq runs on each row.
TEXT ·normSq4AVX2(SB), NOSPLIT, $0-48
	MOVQ   r0+0(FP), R8
	MOVQ   r1+8(FP), R9
	MOVQ   r2+16(FP), R10
	MOVQ   r3+24(FP), R11
	MOVQ   n+32(FP), CX
	MOVQ   out+40(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	SHRQ   $2, BX
	JZ     norm1

norm4loop:
	VMOVUPD    (R8), Y1                      // a0 a1 a2 a3
	VMOVUPD    (R9), Y2                      // b0 b1 b2 b3
	VMOVUPD    (R10), Y3                     // c0 c1 c2 c3
	VMOVUPD    (R11), Y4                     // d0 d1 d2 d3
	VUNPCKLPD  Y2, Y1, Y5                    // a0 b0 a2 b2
	VUNPCKHPD  Y2, Y1, Y6                    // a1 b1 a3 b3
	VUNPCKLPD  Y4, Y3, Y7                    // c0 d0 c2 d2
	VUNPCKHPD  Y4, Y3, Y8                    // c1 d1 c3 d3
	VPERM2F128 $0x20, Y7, Y5, Y1             // a0 b0 c0 d0
	VPERM2F128 $0x20, Y8, Y6, Y2             // a1 b1 c1 d1
	VPERM2F128 $0x31, Y7, Y5, Y3             // a2 b2 c2 d2
	VPERM2F128 $0x31, Y8, Y6, Y4             // a3 b3 c3 d3
	VMULPD     Y1, Y1, Y1
	VMULPD     Y2, Y2, Y2
	VMULPD     Y3, Y3, Y3
	VMULPD     Y4, Y4, Y4
	VADDPD     Y1, Y0, Y0
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y0, Y0
	VADDPD     Y4, Y0, Y0
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	DECQ       BX
	JNZ        norm4loop

norm1:
	ANDQ $3, CX
	JZ   normdone

norm1loop:
	VMOVSD      (R8), X1
	VMOVHPD     (R9), X1, X1                 // a b
	VMOVSD      (R10), X2
	VMOVHPD     (R11), X2, X2                // c d
	VINSERTF128 $1, X2, Y1, Y1               // a b c d
	VMULPD      Y1, Y1, Y1
	VADDPD      Y1, Y0, Y0
	ADDQ        $8, R8
	ADDQ        $8, R9
	ADDQ        $8, R10
	ADDQ        $8, R11
	DECQ        CX
	JNZ         norm1loop

normdone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y *float64, n int)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           axpy4

axpy8loop:
	VMULPD  (SI), Y0, Y1                     // alpha·x
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1                     // y + alpha·x
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     axpy8loop

axpy4:
	TESTQ   $4, CX
	JZ      axpy1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

axpy1:
	ANDQ $3, CX
	JZ   axpydone

axpy1loop:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpy1loop

axpydone:
	VZEROUPPER
	RET

// func rotAVX2(x, y *float64, n int, c, s float64)
TEXT ·rotAVX2(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0
	VBROADCASTSD s+32(FP), Y1
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           rot4

rot8loop:
	// c·x − s·y into x, s·x + c·y into y.
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(SI), Y6
	VMOVUPD 32(DI), Y7
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VMULPD  Y6, Y0, Y8
	VMULPD  Y7, Y1, Y9
	VSUBPD  Y5, Y4, Y4
	VSUBPD  Y9, Y8, Y8
	VMULPD  Y2, Y1, Y2
	VMULPD  Y3, Y0, Y3
	VMULPD  Y6, Y1, Y6
	VMULPD  Y7, Y0, Y7
	VADDPD  Y3, Y2, Y2
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y4, (SI)
	VMOVUPD Y2, (DI)
	VMOVUPD Y8, 32(SI)
	VMOVUPD Y6, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     rot8loop

rot4:
	TESTQ   $4, CX
	JZ      rot1
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y2, Y1, Y2
	VMULPD  Y3, Y0, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y4, (SI)
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

rot1:
	ANDQ $3, CX
	JZ   rotdone

rot1loop:
	VMOVSD (SI), X2
	VMOVSD (DI), X3
	VMULSD X2, X0, X4
	VMULSD X3, X1, X5
	VSUBSD X5, X4, X4
	VMULSD X2, X1, X2
	VMULSD X3, X0, X3
	VADDSD X3, X2, X2
	VMOVSD X4, (SI)
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    rot1loop

rotdone:
	VZEROUPPER
	RET

// func subScaled2AVX2(w, x, y *float64, n int, a, b float64)
TEXT ·subScaled2AVX2(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y0
	VBROADCASTSD b+40(FP), Y1
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           sub4

sub8loop:
	// w − (a·x + b·y).
	VMULPD  (SI), Y0, Y2
	VMULPD  (DX), Y1, Y3
	VMULPD  32(SI), Y0, Y4
	VMULPD  32(DX), Y1, Y5
	VADDPD  Y3, Y2, Y2
	VADDPD  Y5, Y4, Y4
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y5
	VSUBPD  Y2, Y3, Y3
	VSUBPD  Y4, Y5, Y5
	VMOVUPD Y3, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     sub8loop

sub4:
	TESTQ   $4, CX
	JZ      sub1
	VMULPD  (SI), Y0, Y2
	VMULPD  (DX), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (DI), Y3
	VSUBPD  Y2, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

sub1:
	ANDQ $3, CX
	JZ   subdone

sub1loop:
	VMULSD (SI), X0, X2
	VMULSD (DX), X1, X3
	VADDSD X3, X2, X2
	VMOVSD (DI), X3
	VSUBSD X2, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    sub1loop

subdone:
	VZEROUPPER
	RET
