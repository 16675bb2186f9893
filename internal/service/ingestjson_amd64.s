//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of scanRow: a row's number tokens, one 32-byte window a
// token. scanRowGo (ingestjson.go), floatAt per token, is the
// specification: a token taken here carries the mantissa, digit count,
// exponent and sign floatAt would give decimalToFloat, and the cursor
// stops where scanRowGo's does.
//
// A token's window is loaded from its first byte. Vector compares mark its
// digits and points; past a leading '-', TZCNT of the bytes that are
// neither puts the token's end at index end of the window (32: none, the
// token is not taken). The byte there must be ',' or ']'. BZHI keeps the
// points before end: none, or one with digits on both sides. The token is
// taken when it has 1–19 digits and no leading zero; otherwise the kernel
// returns with the cursor on it and floatAt reads it.
//
// The digits are folded from two more loads: A, the 32 bytes ending at the
// last digit, and B, those ending one byte earlier when there is a point
// (else B is A). In B the integer digits sit in the lanes just left of the
// fraction's lanes in A, so a blend under the mask of A's last nfrac lanes
// and a mask of the last nd lanes leave the digits right-aligned, zeros
// before them: VPMADDUBSW makes pairs, VPMADDWD fours, VPACKUSDW and a
// second VPMADDWD eights, one 32-bit group a 8 lanes (g0 … g3, g0 = 0 as
// nd ≤ 19), and man = (g1·10⁸ + g2)·10⁸ + g3 (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021, folds eight digits so). The loads reach 32
// bytes before the token's first byte and 31 after it: the kernel takes no
// token before d[32], and none whose window passes cap(d).
//
// Registers: SI d, R8 the last start a window may have (cap(d) − 32), CX
// the token's start, R14 the call's start, DI the next decimal, R9 the
// decimals written, R13 rowTail; per token AX the token's length, then nd,
// BX its end, DX 1 past a '-', R10 the point's index, then nfrac, R11 the
// end of B, R12 the delimiter. Y15 '0', Y14 9, Y13 '.', Y12–Y10 the fold's
// weights.

// rowTail<>+k is the mask of the last k lanes of 32, 0 ≤ k ≤ 32.
DATA rowTail<>+0(SB)/8, $0
DATA rowTail<>+8(SB)/8, $0
DATA rowTail<>+16(SB)/8, $0
DATA rowTail<>+24(SB)/8, $0
DATA rowTail<>+32(SB)/8, $-1
DATA rowTail<>+40(SB)/8, $-1
DATA rowTail<>+48(SB)/8, $-1
DATA rowTail<>+56(SB)/8, $-1
GLOBL rowTail<>(SB), RODATA|NOPTR, $64

// BCAST fills every dword of y with the 32-bit constant c.
#define BCAST(c, x, y) \
	MOVL         c, AX; \
	VMOVD        AX, x; \
	VPBROADCASTD x, y

// func scanRowAVX2(d []byte, i int, dec *rowScratch) (n, next int, done bool)
TEXT ·scanRowAVX2(SB), NOSPLIT, $0-57
	MOVQ d_base+0(FP), SI
	MOVQ d_cap+16(FP), R8
	SUBQ $32, R8
	MOVQ i+24(FP), CX
	MOVQ dec+32(FP), DI
	MOVQ CX, R14
	XORQ R9, R9
	CMPQ CX, $32
	JLT  stop
	BCAST($0x30303030, X15, Y15)
	BCAST($0x09090909, X14, Y14)
	BCAST($0x2e2e2e2e, X13, Y13)
	BCAST($0x010a010a, X12, Y12) // bytes 10, 1
	BCAST($0x00010064, X11, Y11) // words 100, 1
	BCAST($0x00012710, X10, Y10) // words 10000, 1
	BCAST($0x2c2c2c2c, X9, Y9)   // ','
	BCAST($0x5d5d5d5d, X8, Y8)   // ']'
	LEAQ rowTail<>(SB), R13

token:
	CMPQ CX, R8
	JGT  stop

	// The token ends at its window's first ',' or ']'; every byte before
	// that must be a digit, a point or a leading '-'.
	VMOVDQU   (SI)(CX*1), Y0
	VPCMPEQB  Y9, Y0, Y1
	VPCMPEQB  Y8, Y0, Y2
	VPOR      Y2, Y1, Y1
	VPMOVMSKB Y1, AX
	TZCNTL    AX, AX         // the token's length
	CMPL      AX, $31
	JA        stop
	VPSUBB    Y15, Y0, Y1
	VPMINUB   Y14, Y1, Y2
	VPCMPEQB  Y2, Y1, Y2     // digits
	VPCMPEQB  Y13, Y0, Y3    // points
	VPOR      Y3, Y2, Y2
	VPMOVMSKB Y2, R10
	VPMOVMSKB Y3, R11
	XORL      DX, DX
	CMPB      (SI)(CX*1), $'-'
	SETEQ     DL
	NOTL      R10
	BZHIL     AX, R10, R10
	CMPL      R10, DX
	JNE       stop           // a byte before the end that is no digit, point or leading '-'
	LEAQ      (CX)(AX*1), BX
	MOVBLZX   (SI)(BX*1), R12

points:
	BZHIL  AX, R11, R11      // the points before the end
	JZ     integer
	TZCNTL R11, R10
	BLSRL  R11, R11
	JNZ    stop              // a second point
	SUBL   DX, AX
	DECL   AX                // nd: the digits before the end
	SUBL   DX, R10           // the digits before the point
	CMPL   R10, $1
	JNE    intpart

fraction:
	NEGL R10
	ADDL AX, R10             // nfrac
	JZ   stop                // no digit after the point
	LEAQ -1(BX), R11         // B ends a byte before A
	JMP  take

intpart:
	// No digit before the point, or more than one: none may be a leading zero.
	TESTL R10, R10
	JZ    stop
	LEAQ  (CX)(DX*1), R11
	CMPB  (SI)(R11*1), $'0'
	JNE   fraction
	JMP   stop

integer:
	XORL R10, R10
	SUBL DX, AX              // nd
	JZ   stop
	CMPL AX, $1
	JEQ  single
	LEAQ (CX)(DX*1), R11
	CMPB (SI)(R11*1), $'0'
	JEQ  stop                // a leading zero

single:
	MOVQ BX, R11

take:
	CMPL AX, $19
	JA   stop

	// Fold the digits, right-aligned.
	VMOVDQU    -32(SI)(BX*1), Y0
	VMOVDQU    -32(SI)(R11*1), Y1
	VMOVDQU    (R13)(R10*1), Y2
	VPBLENDVB  Y2, Y0, Y1, Y1
	VPSUBB     Y15, Y1, Y1
	VPAND      (R13)(AX*1), Y1, Y1
	VPMADDUBSW Y12, Y1, Y1
	VPMADDWD   Y11, Y1, Y1
	VPACKUSDW  Y1, Y1, Y1
	VPMADDWD   Y10, Y1, Y1

	MOVB AX, 12(DI)          // nd
	MOVB R10, 13(DI)         // frac
	MOVB DX, 14(DI)          // neg
	MOVQ CX, R11
	SUBQ R14, R11
	MOVL R11, 8(DI)          // at

	VMOVQ        X1, AX      // g0 | g1<<32
	VEXTRACTI128 $1, Y1, X1
	VMOVQ        X1, DX      // g2 | g3<<32
	SHRQ         $32, AX
	IMUL3Q       $100000000, AX, AX
	MOVL         DX, R10
	ADDQ         R10, AX
	IMUL3Q       $100000000, AX, AX
	SHRQ         $32, DX
	ADDQ         DX, AX
	MOVQ         AX, 0(DI)   // man
	ADDQ         $16, DI
	INCQ         R9

	// Step over a ',' that a byte above ' ' follows; stop at any other.
	CMPL R12, $']'
	JEQ  done
	CMPB 1(SI)(BX*1), $' '
	JLS  done
	LEAQ 1(BX), CX
	CMPQ R9, $48
	JNE  token

stop:
	MOVQ R9, n+40(FP)
	MOVQ CX, next+48(FP)
	MOVB $0, done+56(FP)
	VZEROUPPER
	RET

done:
	MOVQ R9, n+40(FP)
	MOVQ BX, next+48(FP)
	MOVB $1, done+56(FP)
	VZEROUPPER
	RET
