//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 bodies of the row kernels. The Go bodies in rowkernels.go are the
// specification and every result here is Float64bits-identical to them: each
// lane runs one element's (or, in normSq4AVX2, normSq16AVX2 and
// sweepDotsAVX2, one row's) scalar expression with the same operands in the
// same order, one separate VMULPD, VADDPD or VSUBPD per rounding of the Go
// code (never FMA: a fused rounding differs), and the n mod 4 tail runs the
// same steps one element at a time.

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

// NORMGROUP adds the squares of the four elements at byte offset AX of
// the rows at a, b, c and d to acc, one lane a row, in element order. Each
// row's pair of elements comes in as half a register (c's and d's through
// VINSERTF128 from memory), and one unpack per element gathers the four
// rows: a0 a1 c0 c1 and b0 b1 d0 d1 unpack to a0 b0 c0 d0 and a1 b1 c1 d1.
#define NORMGROUP(a, b, c, d, acc) \
	VMOVUPD     (a)(AX*1), X4;            \
	VINSERTF128 $1, (c)(AX*1), Y4, Y4;    \
	VMOVUPD     (b)(AX*1), X5;            \
	VINSERTF128 $1, (d)(AX*1), Y5, Y5;    \
	VMOVUPD     16(a)(AX*1), X6;          \
	VINSERTF128 $1, 16(c)(AX*1), Y6, Y6;  \
	VMOVUPD     16(b)(AX*1), X7;          \
	VINSERTF128 $1, 16(d)(AX*1), Y7, Y7;  \
	VUNPCKLPD   Y5, Y4, Y8;               \
	VUNPCKHPD   Y5, Y4, Y9;               \
	VUNPCKLPD   Y7, Y6, Y10;              \
	VUNPCKHPD   Y7, Y6, Y11;              \
	VMULPD      Y8, Y8, Y8;               \
	VMULPD      Y9, Y9, Y9;               \
	VMULPD      Y10, Y10, Y10;            \
	VMULPD      Y11, Y11, Y11;            \
	VADDPD      Y8, acc, acc;             \
	VADDPD      Y9, acc, acc;             \
	VADDPD      Y10, acc, acc;            \
	VADDPD      Y11, acc, acc

// NORMONE is NORMGROUP for one element.
#define NORMONE(a, b, c, d, acc) \
	VMOVSD      (a)(AX*1), X4;      \
	VMOVHPD     (b)(AX*1), X4, X4;  \
	VMOVSD      (c)(AX*1), X5;      \
	VMOVHPD     (d)(AX*1), X5, X5;  \
	VINSERTF128 $1, X5, Y4, Y4;     \
	VMULPD      Y4, Y4, Y4;         \
	VADDPD      Y4, acc, acc

// func normSq16AVX2(rows *[]float64, n int, out *float64)
//
// Sixteen rows in two passes of eight, each pass two groups of
// normSq4AVX2's lanes with an accumulator register each: the two add
// chains are independent, so each overlaps the other's waits, and the
// pass's eight row pointers stay in registers, read once from the headers
// (24 bytes apart). Four chains at once would need sixteen pointers, more
// than there are registers, and reloading them at every step costs more
// than the third and fourth chains save: the body is bound by its loads,
// not by the adds' latency.
TEXT ·normSq16AVX2(SB), NOSPLIT, $0-24
	MOVQ rows+0(FP), SI
	MOVQ out+16(FP), DI

norm16pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ (SI), R8
	MOVQ 24(SI), R9
	MOVQ 48(SI), R10
	MOVQ 72(SI), R11
	MOVQ 96(SI), R12
	MOVQ 120(SI), R13
	MOVQ 144(SI), BX
	MOVQ 168(SI), DX
	XORQ AX, AX                              // byte offset of the element
	MOVQ n+8(FP), CX
	SHRQ $2, CX
	JZ   norm16one

norm16loop:
	NORMGROUP(R8, R9, R10, R11, Y0)
	NORMGROUP(R12, R13, BX, DX, Y1)
	ADDQ      $32, AX
	DECQ      CX
	JNZ       norm16loop

norm16one:
	MOVQ n+8(FP), CX
	ANDQ $3, CX
	JZ   norm16store

norm16oneloop:
	NORMONE(R8, R9, R10, R11, Y0)
	NORMONE(R12, R13, BX, DX, Y1)
	ADDQ    $8, AX
	DECQ    CX
	JNZ     norm16oneloop

norm16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $192, SI
	ADDQ    $64, DI
	MOVQ    rows+0(FP), R8
	ADDQ    $192, R8
	CMPQ    SI, R8
	JEQ     norm16pass
	VZEROUPPER
	RET

// SAXA adds d[j]·w[j·n+k] (Y9 = d[j], SI at row j) to the accumulator of
// the four columns at byte offset off from column k0; SAXB does the same
// with −0 in place of the product in a lane whose column is not right of
// row j's diagonal (Y8 holds j−k0+1 in every lane, sweepCol<> each lane's
// column less k0).
#define SAXA(off, acc, p) \
	VMULPD off(SI), Y9, p; \
	VADDPD p, acc, acc

#define SAXB(off, acc, p) \
	VMULPD    off(SI), Y9, p;            \
	VPCMPGTQ  sweepCol<>+off(SB), Y8, Y10; \
	VBLENDVPD Y10, Y15, p, p;            \
	VADDPD    p, acc, acc

// func sweepAxpyAVX2(w *float64, n int, d, e *float64, i int)
//
// Column by column, not row by row: e[k] takes d[j]·w[j·n+k] for j = 0…k−1
// in j order, exactly the order in which the rows add into it, but with
// e[k] held in a register from its first add to its last, where a row at a
// time would store it and load it back (one element along) for every row.
// The (i−1) mod 4 columns from 1 on are short (k ≤ 3 adds each) and run one
// scalar chain each; the rest go in passes of two chunks of four columns
// (two independent add chains) while eight columns are left, then one
// chunk. A pass of C chunks from column k0 adds rows 0…k0−1 to every lane
// (SAXA), then the 4·C−1 rows from k0 on right of their diagonals only
// (SAXB). More chunks a pass measured no faster: the adds' latency is not
// what bounds it.
TEXT ·sweepAxpyAVX2(SB), NOSPLIT, $0-40
	MOVQ     w+0(FP), R8
	MOVQ     n+8(FP), R9
	MOVQ     d+16(FP), R10                   // &d[0]
	MOVQ     e+24(FP), R11
	MOVQ     i+32(FP), BX
	SHLQ     $3, R9                          // row stride in bytes
	ADDQ     $8, R8                          // &w[k0], k0 = 1
	ADDQ     $8, R11                         // &e[k0]
	MOVQ     $1, R12                         // k0
	DECQ     BX                              // columns 1…i−1
	MOVQ     BX, AX
	ANDQ     $3, AX                          // short columns
	SHRQ     $2, BX                          // chunks of four after them
	VPCMPEQQ Y14, Y14, Y14                   // −1 in every lane
	VPSLLQ   $63, Y14, Y15                   // −0 in every lane
	TESTQ    AX, AX
	JZ       saxpasses

saxshort:
	VMOVSD (R11), X0                         // e[k]
	MOVQ   R8, SI
	MOVQ   R10, DX
	MOVQ   R12, CX

saxshortrow:
	VMOVSD (DX), X1
	VMULSD (SI), X1, X1                      // d[j]·w[j·n+k]
	VADDSD X1, X0, X0
	ADDQ   R9, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    saxshortrow
	VMOVSD X0, (R11)
	ADDQ   $8, R8
	ADDQ   $8, R11
	INCQ   R12
	DECQ   AX
	JNZ    saxshort

saxpasses:
	CMPQ BX, $2
	JAE  sax2pass
	TESTQ BX, BX
	JNZ  sax1pass
	VZEROUPPER
	RET

sax2pass:
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R12, CX

sax2a:
	VBROADCASTSD (DX), Y9
	SAXA(0, Y0, Y4)
	SAXA(32, Y1, Y5)
	ADDQ         R9, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          sax2a
	VPXOR        Y8, Y8, Y8
	VPSUBQ       Y14, Y8, Y8
	MOVQ         $7, CX

sax2b:
	VBROADCASTSD (DX), Y9
	SAXB(0, Y0, Y4)
	SAXB(32, Y1, Y5)
	VPSUBQ       Y14, Y8, Y8
	ADDQ         R9, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          sax2b
	VMOVUPD      Y0, (R11)
	VMOVUPD      Y1, 32(R11)
	ADDQ         $64, R8
	ADDQ         $64, R11
	ADDQ         $8, R12
	SUBQ         $2, BX
	JMP          saxpasses

sax1pass:
	VMOVUPD (R11), Y0
	MOVQ    R8, SI
	MOVQ    R10, DX
	MOVQ    R12, CX

sax1a:
	VBROADCASTSD (DX), Y9
	SAXA(0, Y0, Y4)
	ADDQ         R9, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          sax1a
	VPXOR        Y8, Y8, Y8
	VPSUBQ       Y14, Y8, Y8
	MOVQ         $3, CX

sax1b:
	VBROADCASTSD (DX), Y9
	SAXB(0, Y0, Y4)
	VPSUBQ       Y14, Y8, Y8
	ADDQ         R9, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          sax1b
	VMOVUPD      Y0, (R11)
	VZEROUPPER
	RET

DATA sweepCol<>+0(SB)/8, $0
DATA sweepCol<>+8(SB)/8, $1
DATA sweepCol<>+16(SB)/8, $2
DATA sweepCol<>+24(SB)/8, $3
DATA sweepCol<>+32(SB)/8, $4
DATA sweepCol<>+40(SB)/8, $5
DATA sweepCol<>+48(SB)/8, $6
DATA sweepCol<>+56(SB)/8, $7
GLOBL sweepCol<>(SB), RODATA|NOPTR, $64

// COLS4 loads the four elements at SI of the rows SI, SI+R9, SI+2·R9 and
// SI+R13 and leaves them transposed, one register an element and one lane
// a row, in Y8…Y11 (as NORMGROUP does).
#define COLS4 \
	VMOVUPD     (SI), X4;                \
	VINSERTF128 $1, (SI)(R9*2), Y4, Y4;  \
	VMOVUPD     (SI)(R9*1), X5;          \
	VINSERTF128 $1, (SI)(R13*1), Y5, Y5; \
	VMOVUPD     16(SI), X6;              \
	VINSERTF128 $1, 16(SI)(R9*2), Y6, Y6; \
	VMOVUPD     16(SI)(R9*1), X7;        \
	VINSERTF128 $1, 16(SI)(R13*1), Y7, Y7; \
	VUNPCKLPD   Y5, Y4, Y8;              \
	VUNPCKHPD   Y5, Y4, Y9;              \
	VUNPCKLPD   Y7, Y6, Y10;             \
	VUNPCKHPD   Y7, Y6, Y11

// func sweepDotsAVX2(w *float64, n int, d, e *float64, i int)
//
// Four rows j…j+3 a group, one lane a row, as in normSq4AVX2: lane r starts
// at e[j+r] and adds w[(j+r)·n+k]·d[k] for k from j+r on. The group's first
// four columns are the triangle where rows start: a lane whose row has not
// started adds −0, which leaves every value as it is. The i mod 4 rows left
// run one scalar chain each.
TEXT ·sweepDotsAVX2(SB), NOSPLIT, $0-40
	MOVQ     w+0(FP), R8                     // &w[j·n+j]
	MOVQ     n+8(FP), R9
	MOVQ     d+16(FP), R10                   // &d[j]
	MOVQ     e+24(FP), R11                   // &e[j]
	MOVQ     i+32(FP), DX                    // i−j
	SHLQ     $3, R9                          // row stride in bytes
	LEAQ     (R9)(R9*2), R13                 // three rows
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15                   // −0 in every lane
	CMPQ     DX, $4
	JB       dotstail

dotsgroup:
	VMOVUPD      (R11), Y0                   // e[j…j+3]
	MOVQ         R8, SI
	COLS4
	VBROADCASTSD (R10), Y12
	VMULPD       Y12, Y8, Y8
	VBLENDPD     $0x0e, Y15, Y8, Y8          // rows j+1… start later
	VADDPD       Y8, Y0, Y0
	VBROADCASTSD 8(R10), Y12
	VMULPD       Y12, Y9, Y9
	VBLENDPD     $0x0c, Y15, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD 16(R10), Y12
	VMULPD       Y12, Y10, Y10
	VBLENDPD     $0x08, Y15, Y10, Y10
	VADDPD       Y10, Y0, Y0
	VBROADCASTSD 24(R10), Y12
	VMULPD       Y12, Y11, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ         $32, SI                     // &w[j·n+j+4]
	LEAQ         32(R10), DI                 // &d[j+4]
	LEAQ         -4(DX), CX                  // columns left, i−j−4
	MOVQ         CX, BX
	SHRQ         $2, BX
	JZ           dots1

dots4loop:
	COLS4
	VBROADCASTSD (DI), Y12
	VMULPD       Y12, Y8, Y8
	VADDPD       Y8, Y0, Y0
	VBROADCASTSD 8(DI), Y12
	VMULPD       Y12, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD 16(DI), Y12
	VMULPD       Y12, Y10, Y10
	VADDPD       Y10, Y0, Y0
	VBROADCASTSD 24(DI), Y12
	VMULPD       Y12, Y11, Y11
	VADDPD       Y11, Y0, Y0
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         BX
	JNZ          dots4loop

dots1:
	ANDQ $3, CX
	JZ   dotsstore

dots1loop:
	VMOVSD       (SI), X4
	VMOVHPD      (SI)(R9*1), X4, X4
	VMOVSD       (SI)(R9*2), X5
	VMOVHPD      (SI)(R13*1), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VBROADCASTSD (DI), Y12
	VMULPD       Y12, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          dots1loop

dotsstore:
	VMOVUPD Y0, (R11)
	LEAQ    32(R8)(R9*4), R8                 // &w[(j+4)·n+j+4]
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, DX
	CMPQ    DX, $4
	JAE     dotsgroup

dotstail:
	TESTQ DX, DX
	JZ    dotsdone

dotsrow:
	VMOVSD (R11), X0                         // g = e[j]
	MOVQ   R8, SI
	MOVQ   R10, DI
	MOVQ   DX, CX

dotsrowloop:
	VMOVSD (SI), X1
	VMULSD (DI), X1, X1                      // w[j·n+k]·d[k]
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    dotsrowloop
	VMOVSD X0, (R11)
	LEAQ   8(R8)(R9*1), R8
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   DX
	JNZ    dotsrow

dotsdone:
	VZEROUPPER
	RET

// R2ROW updates the four elements of one row at wa: w − (f·e + g·d), with
// e and d in Y0 and Y1. R2TRI does the same but then puts back the lanes
// that keep (a VBLENDPD mask) selects, the columns left of the row's
// diagonal; R2ONE is R2ROW on one element, e and d in X0 and X1.
#define R2ROW(wa, f, g) \
	VMULPD  Y0, f, Y2; \
	VMULPD  Y1, g, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMOVUPD wa, Y3;    \
	VSUBPD  Y2, Y3, Y4; \
	VMOVUPD Y4, wa

#define R2TRI(wa, f, g, keep) \
	VMULPD   Y0, f, Y2;      \
	VMULPD   Y1, g, Y3;      \
	VADDPD   Y3, Y2, Y2;     \
	VMOVUPD  wa, Y3;         \
	VSUBPD   Y2, Y3, Y4;     \
	VBLENDPD keep, Y3, Y4, Y4; \
	VMOVUPD  Y4, wa

#define R2ONE(wa, f, g) \
	VMULSD X0, f, X2;  \
	VMULSD X1, g, X3;  \
	VADDSD X3, X2, X2; \
	VMOVSD wa, X3;     \
	VSUBSD X2, X3, X3; \
	VMOVSD X3, wa

// R2NEXT sets d[j] = w[j·n+i−1] and w[j·n+i] = +0 for the row whose column
// i is at R13.
#define R2NEXT(doff) \
	VMOVSD -8(R13), X2;    \
	VMOVSD X2, doff(R10); \
	MOVQ   $0, (R13)

// func sweepRank2AVX2(w *float64, n, rows int, d, e *float64, i int)
//
// Row j: w[j·n+k] − (d[j]·e[k] + e[j]·d[k]) for k from j to i−1, then
// d[j] = w[j·n+i−1] and w[j·n+i] = +0. Rows go four at a time, sharing each
// load of e and d: every row of the group runs columns j… (the group's first
// row's diagonal on) and the triangle left of the other rows' diagonals is
// written back as it was read; their d entries are set after the group,
// which no row of it reads. The rows mod 4 left run one at a time.
TEXT ·sweepRank2AVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), AX                         // &w[j·n+j]
	MOVQ n+8(FP), R9
	MOVQ rows+16(FP), DX
	MOVQ d+24(FP), R10                       // &d[j]
	MOVQ e+32(FP), R11                       // &e[j]
	MOVQ i+40(FP), R12                       // i−j
	SHLQ $3, R9                              // row stride in bytes
	LEAQ (R9)(R9*2), BX                      // three rows
	CMPQ DX, $4
	JB   r2rows

r2group:
	VBROADCASTSD (R10), Y8                   // f = d[j…j+3]
	VBROADCASTSD 8(R10), Y9
	VBROADCASTSD 16(R10), Y10
	VBROADCASTSD 24(R10), Y11
	VBROADCASTSD (R11), Y12                  // g = e[j…j+3]
	VBROADCASTSD 8(R11), Y13
	VBROADCASTSD 16(R11), Y14
	VBROADCASTSD 24(R11), Y15
	VMOVUPD      (R11), Y0
	VMOVUPD      (R10), Y1
	R2ROW((AX), Y8, Y12)
	R2TRI((AX)(R9*1), Y9, Y13, $0x1)
	R2TRI((AX)(R9*2), Y10, Y14, $0x3)
	R2TRI((AX)(BX*1), Y11, Y15, $0x7)
	LEAQ         32(AX), SI
	LEAQ         32(R11), DI
	LEAQ         32(R10), R8
	LEAQ         -4(R12), CX                 // columns left
	CMPQ         CX, $4
	JB           r2group1

r2group4:
	VMOVUPD (DI), Y0
	VMOVUPD (R8), Y1
	R2ROW((SI), Y8, Y12)
	R2ROW((SI)(R9*1), Y9, Y13)
	R2ROW((SI)(R9*2), Y10, Y14)
	R2ROW((SI)(BX*1), Y11, Y15)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     r2group4

r2group1:
	TESTQ CX, CX
	JZ    r2groupnext

r2group1loop:
	VMOVSD (DI), X0
	VMOVSD (R8), X1
	R2ONE((SI), X8, X12)
	R2ONE((SI)(R9*1), X9, X13)
	R2ONE((SI)(R9*2), X10, X14)
	R2ONE((SI)(BX*1), X11, X15)
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R8
	DECQ   CX
	JNZ    r2group1loop

r2groupnext:
	LEAQ (AX)(R12*8), R13                    // &w[j·n+i]
	R2NEXT(0)
	ADDQ R9, R13
	R2NEXT(8)
	ADDQ R9, R13
	R2NEXT(16)
	ADDQ R9, R13
	R2NEXT(24)
	LEAQ 32(AX)(R9*4), AX
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, R12
	SUBQ $4, DX
	CMPQ DX, $4
	JAE  r2group

r2rows:
	TESTQ DX, DX
	JZ    r2done

r2row:
	VBROADCASTSD (R10), Y8                   // f = d[j]
	VBROADCASTSD (R11), Y12                  // g = e[j]
	MOVQ         AX, SI
	MOVQ         R11, DI
	MOVQ         R10, R8
	MOVQ         R12, CX
	CMPQ         CX, $4
	JB           r2row1

r2row4:
	VMOVUPD (DI), Y0
	VMOVUPD (R8), Y1
	R2ROW((SI), Y8, Y12)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     r2row4

r2row1:
	TESTQ CX, CX
	JZ    r2rownext

r2row1loop:
	VMOVSD (DI), X0
	VMOVSD (R8), X1
	R2ONE((SI), X8, X12)
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R8
	DECQ   CX
	JNZ    r2row1loop

r2rownext:
	LEAQ (AX)(R12*8), R13
	R2NEXT(0)
	LEAQ 8(AX)(R9*1), AX
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ R12
	DECQ DX
	JNZ  r2row

r2done:
	VZEROUPPER
	RET
