//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of gramUpper: the upper triangle of BᵀB from column
// r = d mod 4 on. gramRowGo (blocked.go) is the specification and every
// result here is Float64bits-identical to it. The Gram row's entries are
// the lanes: a four-entry tile keeps gramRowGo's four partial sums s0..s3 in
// four accumulators, one for each class of rows i ≡ 0, 1, 2, 3 (mod 4). Row
// i contributes rᵢ[j], broadcast, times rᵢ[m…m+4), read where the row lies,
// as a separate VMULPD and VADDPD (never FMA: a fused rounding differs);
// the n mod 4 tail rows go into class 0; the classes combine as
// (s0+s1)+(s2+s3) and then g[j·d+m] + dot.
//
// The tiles end at column d. The columns are taken in bands of up to three
// tiles from the right, and a band's Gram rows one after another, one pass
// over the block's rows each: three tiles are twelve independent add
// chains, enough to keep the FP ports busy while the row's address is
// found, and the band's columns stay in L1 from one Gram row to the next.
// A Gram row j > c (the band's first column, so j ≤ c+3) owns only the
// columns from j on, so the first tile's store is masked to them
// (VMASKMOVPD), and nothing left of the diagonal is read from g or written.
//
// A slice block's rows are found through their headers; an evenly spaced
// one — a flat block, or slices the caller found step bytes apart — by
// stepping from the first: one add per row where a header costs a load and
// an add, and no header array competing for L1 with the rows. The two forms
// share every instruction but the step. The caller passes the header
// array in either case, which keeps every row reachable during the call.
// Tile loads keep a plain base register (an indexed address would cost the
// VMULPD its fused load).
//
// Registers in a pass: SI the first row header or the first row, R10 step
// (zero: through the headers), R11 c·8, R12 8·d, R13 (j−c)·8, R8
// the header cursor, AX the current row at column c, BX loop counter, DX
// Gram rows left, DI the Gram at entry (j, c), CX the first tile's store
// mask, Y12 the broadcast, Y13–Y15 products and the stores' operands. The
// band's right end, its first column and the tile count k from it live in
// the frame.

// MUL1, MUL2 and MUL3 add the products of the row at AX into the one, two
// or three tiles of a class.
#define MUL1(a0) \
	VBROADCASTSD (AX)(R13*1), Y12; \
	VMULPD       (AX), Y12, Y13;   \
	VADDPD       Y13, a0, a0

#define MUL2(a0, a1) \
	MUL1(a0);                      \
	VMULPD       32(AX), Y12, Y14; \
	VADDPD       Y14, a1, a1

#define MUL3(a0, a1, a2) \
	MUL2(a0, a1);                  \
	VMULPD       64(AX), Y12, Y15; \
	VADDPD       Y15, a2, a2

// HDR points AX at column c of the row whose header is at off(R8).
#define HDR(off) \
	MOVQ off(R8), AX; \
	ADDQ R11, AX

// START sets up a Gram row's pass: CX to the mask selecting the columns
// from j on (all four lanes when j ≤ c), R8 at the first header, AX at the
// first row's column c when the rows are evenly spaced, BX at n/4, and the
// flags of R10 (zero: through the headers).
#define START \
	XORQ    BX, BX;                   \
	MOVQ    R13, AX;                  \
	CMPQ    AX, $0;                   \
	CMOVQLT BX, AX;                   \
	LEAQ    gramRowMask<>+32(SB), CX; \
	SUBQ    AX, CX;                   \
	MOVQ    SI, R8;                   \
	LEAQ    (SI)(R11*1), AX;          \
	MOVQ    n+16(FP), BX;             \
	SHRQ    $2, BX;                   \
	TESTQ   R10, R10

// TAILS leaves BX at n mod 4 and the flags of it.
#define TAILS \
	MOVQ n+16(FP), BX; \
	ANDQ $3, BX

// NEXTJ steps to the next Gram row and leaves the flags of the count of
// those left.
#define NEXTJ \
	ADDQ $8, R13;  \
	ADDQ R12, DI;  \
	DECQ DX

// FOLD combines the four classes of one tile, (s0+s1)+(s2+s3), into s0.
#define FOLD(s0, s1, s2, s3) \
	VADDPD s1, s0, s0; \
	VADDPD s3, s2, s2; \
	VADDPD s2, s0, s0

// STORE0 adds the first tile's dots into the Gram under the mask CX points
// at; STORE adds a later tile's at byte offset off.
#define STORE0(acc) \
	VMOVDQU    (CX), Y15;      \
	VMASKMOVPD (DI), Y15, Y14; \
	VADDPD     acc, Y14, acc;  \
	VMASKMOVPD acc, Y15, (DI)

#define STORE(off, acc) \
	VMOVUPD off(DI), Y14;  \
	VADDPD  acc, Y14, acc; \
	VMOVUPD acc, off(DI)

// gramRowMask<> holds four zero lanes and four all-ones lanes: the four
// lanes starting 8·z bytes before the middle leave the first z unselected.
DATA gramRowMask<>+0(SB)/8, $0
DATA gramRowMask<>+8(SB)/8, $0
DATA gramRowMask<>+16(SB)/8, $0
DATA gramRowMask<>+24(SB)/8, $0
DATA gramRowMask<>+32(SB)/8, $-1
DATA gramRowMask<>+40(SB)/8, $-1
DATA gramRowMask<>+48(SB)/8, $-1
DATA gramRowMask<>+56(SB)/8, $-1
GLOBL gramRowMask<>(SB), RODATA|NOPTR, $64

// func gramUpperAVX2(rows *[]float64, first *float64, n, d, step int, gram *float64)
TEXT ·gramUpperAVX2(SB), NOSPLIT, $24-48
	MOVQ  step+32(FP), R10
	MOVQ  rows+0(FP), SI
	TESTQ R10, R10
	JZ    setup
	MOVQ  first+8(FP), SI

setup:
	MOVQ d+24(FP), R12
	SHLQ $3, R12
	MOVQ d+24(FP), AX
	MOVQ AX, end-8(SP)

	// Bands [c, end) of up to three tiles from the right, c ≥ r: Gram rows
	// 0…c+3 take the whole band, and each later group of four rows, from
	// column c' = c+4k on, the tiles right of its diagonal.
band:
	MOVQ    end-8(SP), AX
	MOVQ    d+24(FP), BX
	ANDQ    $3, BX
	CMPQ    AX, BX
	JLE     done
	SUBQ    $12, AX
	CMPQ    AX, BX
	CMOVQLT BX, AX
	MOVQ    AX, c-16(SP)
	MOVQ    $0, k-24(SP)

tiles:
	// R11 = c'·8; the tiles' Gram rows are ja = 0 (k = 0) or c', to
	// jb = min(c'+4, d): DX = jb − ja, R13 = (ja−c')·8, DI = the Gram at
	// entry (ja, c'); AX = the w = (end−c')/4 tiles.
	MOVQ    k-24(SP), R11
	SHLQ    $2, R11
	ADDQ    c-16(SP), R11
	CMPQ    R11, end-8(SP)
	JGE     bandend
	MOVQ    R11, AX
	CMPQ    k-24(SP), $0
	CMOVQEQ k-24(SP), AX // ja = 0 for k = 0
	LEAQ    4(R11), DX
	CMPQ    DX, d+24(FP)
	CMOVQGT d+24(FP), DX
	SUBQ    AX, DX
	MOVQ    AX, R13
	SUBQ    R11, R13
	SHLQ    $3, R13
	IMULQ   d+24(FP), AX
	ADDQ    R11, AX
	MOVQ    gram+40(FP), DI
	LEAQ    (DI)(AX*8), DI
	MOVQ    end-8(SP), AX
	SUBQ    R11, AX
	SHLQ    $3, R11
	CMPQ    AX, $8
	JLT     band1
	JEQ     band2

band3:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	START
	JNZ    flat3
	TESTQ  BX, BX
	JZ     stail3

	// The two three-tile loops carry nearly all the work; each starts on a
	// 32-byte boundary whatever code precedes it.
	PCALIGN $32

svec3:
	HDR(0)
	MUL3(Y0, Y1, Y2)
	HDR(24)
	MUL3(Y3, Y4, Y5)
	HDR(48)
	MUL3(Y6, Y7, Y8)
	HDR(72)
	MUL3(Y9, Y10, Y11)
	ADDQ $96, R8
	DECQ BX
	JNZ  svec3

stail3:
	TAILS
	JZ fold3

stail3loop:
	HDR(0)
	MUL3(Y0, Y1, Y2)
	ADDQ $24, R8
	DECQ BX
	JNZ  stail3loop
	JMP  fold3

flat3:
	TESTQ BX, BX
	JZ    ftail3

	PCALIGN $32

fvec3:
	MUL3(Y0, Y1, Y2)
	ADDQ R10, AX
	MUL3(Y3, Y4, Y5)
	ADDQ R10, AX
	MUL3(Y6, Y7, Y8)
	ADDQ R10, AX
	MUL3(Y9, Y10, Y11)
	ADDQ R10, AX
	DECQ BX
	JNZ  fvec3

ftail3:
	TAILS
	JZ fold3

ftail3loop:
	MUL3(Y0, Y1, Y2)
	ADDQ R10, AX
	DECQ BX
	JNZ  ftail3loop

fold3:
	FOLD(Y0, Y3, Y6, Y9)
	FOLD(Y1, Y4, Y7, Y10)
	FOLD(Y2, Y5, Y8, Y11)
	STORE0(Y0)
	STORE(32, Y1)
	STORE(64, Y2)
	NEXTJ
	JNZ  band3
	JMP  tile

band2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	START
	JNZ    flat2
	TESTQ  BX, BX
	JZ     stail2

svec2:
	HDR(0)
	MUL2(Y0, Y1)
	HDR(24)
	MUL2(Y2, Y3)
	HDR(48)
	MUL2(Y4, Y5)
	HDR(72)
	MUL2(Y6, Y7)
	ADDQ $96, R8
	DECQ BX
	JNZ  svec2

stail2:
	TAILS
	JZ fold2

stail2loop:
	HDR(0)
	MUL2(Y0, Y1)
	ADDQ $24, R8
	DECQ BX
	JNZ  stail2loop
	JMP  fold2

flat2:
	TESTQ BX, BX
	JZ    ftail2

fvec2:
	MUL2(Y0, Y1)
	ADDQ R10, AX
	MUL2(Y2, Y3)
	ADDQ R10, AX
	MUL2(Y4, Y5)
	ADDQ R10, AX
	MUL2(Y6, Y7)
	ADDQ R10, AX
	DECQ BX
	JNZ  fvec2

ftail2:
	TAILS
	JZ fold2

ftail2loop:
	MUL2(Y0, Y1)
	ADDQ R10, AX
	DECQ BX
	JNZ  ftail2loop

fold2:
	FOLD(Y0, Y2, Y4, Y6)
	FOLD(Y1, Y3, Y5, Y7)
	STORE0(Y0)
	STORE(32, Y1)
	NEXTJ
	JNZ  band2
	JMP  tile

band1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	START
	JNZ    flat1
	TESTQ  BX, BX
	JZ     stail1

svec1:
	HDR(0)
	MUL1(Y0)
	HDR(24)
	MUL1(Y1)
	HDR(48)
	MUL1(Y2)
	HDR(72)
	MUL1(Y3)
	ADDQ $96, R8
	DECQ BX
	JNZ  svec1

stail1:
	TAILS
	JZ fold1

stail1loop:
	HDR(0)
	MUL1(Y0)
	ADDQ $24, R8
	DECQ BX
	JNZ  stail1loop
	JMP  fold1

flat1:
	TESTQ BX, BX
	JZ    ftail1

fvec1:
	MUL1(Y0)
	ADDQ R10, AX
	MUL1(Y1)
	ADDQ R10, AX
	MUL1(Y2)
	ADDQ R10, AX
	MUL1(Y3)
	ADDQ R10, AX
	DECQ BX
	JNZ  fvec1

ftail1:
	TAILS
	JZ fold1

ftail1loop:
	MUL1(Y0)
	ADDQ R10, AX
	DECQ BX
	JNZ  ftail1loop

fold1:
	FOLD(Y0, Y1, Y2, Y3)
	STORE0(Y0)
	NEXTJ
	JNZ  band1

tile:
	INCQ k-24(SP)
	JMP  tiles

bandend:
	SUBQ $12, end-8(SP)
	JMP  band

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
