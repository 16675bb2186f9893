//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of scanRow: a row's number tokens, one 32-byte window a
// token, each rounded to its float64 in the same pass. scanRowGo
// (ingestjson.go), floatAt per token, is the specification: a token taken
// here is stored as the float64 floatAt returns for it, and the cursor
// stops where scanRowGo's does.
//
// A token's window is loaded from its first byte. Vector compares mark its
// digits and points; past a leading '-', TZCNT of the bytes that are
// neither puts the token's end at index end of the window (32: none, the
// token is not taken). The byte there must be ',' or ']'. BZHI keeps the
// points before end: none, or one with digits on both sides. The token is
// taken when it has 1–24 walked digits, no leading zero and at most 19
// significant ones (a 0.000…'s zeros are walked, not significant);
// otherwise the kernel returns with the cursor on it and floatAt reads it.
//
// The digits are folded from two more loads: A, the 32 bytes ending at the
// last digit, and B, those ending one byte earlier when there is a point
// (else B is A). In B the integer digits sit in the lanes just left of the
// fraction's lanes in A, so a blend under the mask of A's last nfrac lanes
// and a mask of the last nd lanes leave the digits right-aligned, zeros
// before them. The first lane that is not zero gives the significant
// digits, 32 − lane. VPMADDUBSW makes pairs, VPMADDWD fours, VPACKUSDW and
// a second VPMADDWD eights, one 32-bit group a 8 lanes (g0 … g3, g0 = 0 as
// nd ≤ 24), and man = (g1·10⁸ + g2)·10⁸ + g3, exact below 10¹⁹ (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021, folds eight digits so).
// The loads reach 32 bytes before the token's first byte and 31 after it:
// the kernel takes no token before d[32], and none whose window passes
// cap(d).
//
// man·10^−nfrac is then rounded as decimalToFloat (decfloat.go) rounds it,
// step for step: ±0 for man = 0; Clinger's exact path (one correctly
// rounded divide) for ≤ 15 significant digits and nfrac ≤ 22; else
// Eisel–Lemire over pow10Tab. Where decimalToFloat declines (the 128-bit
// product still ambiguous, or a product exactly half-way) the kernel
// declines the token. 1e-23 ≤ |value| < 1e19, so the biased exponent lies
// in 946…1086: decimalToFloat's subnormal and overflow exits cannot be
// reached and have no copy here. The float64 is stored into out.
//
// Registers: SI d, R8 the last start a window may have (cap(d) − 32), CX
// the token's start, DI the next float64 of out, R14 the end of out, R13
// rowTail; per token AX the token's length, then nd, then man, BX its end,
// DX 1 past a '-' (so the sign), R10 the point's index, then nfrac, then
// exp2, R11 the end of B, R12 the first significant lane; the rounding
// has R9, R11 and R12 to itself. Y15 '0', Y14 9, Y13 '.', Y12–Y10 the
// fold's weights, Y9 ',', Y8 ']', Y7 zero.

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

// func scanRowAVX2(d []byte, i int, out []float64) (n, next int, done bool)
TEXT ·scanRowAVX2(SB), NOSPLIT, $0-73
	MOVQ d_base+0(FP), SI
	MOVQ d_cap+16(FP), R8
	SUBQ $32, R8
	MOVQ i+24(FP), CX
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), R14
	LEAQ (DI)(R14*8), R14
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
	VPXOR Y7, Y7, Y7
	LEAQ  rowTail<>(SB), R13

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
	CMPL AX, $24
	JA   stop

	// Fold the digits, right-aligned, and find the first significant one.
	VMOVDQU    -32(SI)(BX*1), Y0
	VMOVDQU    -32(SI)(R11*1), Y1
	VMOVDQU    (R13)(R10*1), Y2
	VPBLENDVB  Y2, Y0, Y1, Y1
	VPSUBB     Y15, Y1, Y1
	VPAND      (R13)(AX*1), Y1, Y1
	VPCMPEQB   Y7, Y1, Y2
	VPMOVMSKB  Y2, R12
	NOTL       R12
	TZCNTL     R12, R12      // the first significant lane; 32 for none
	CMPL       R12, $13
	JB         stop          // more than 19 significant digits
	VPMADDUBSW Y12, Y1, Y1
	VPMADDWD   Y11, Y1, Y1
	VPACKUSDW  Y1, Y1, Y1
	VPMADDWD   Y10, Y1, Y1

	VMOVQ        X1, AX      // g0 | g1<<32
	VEXTRACTI128 $1, Y1, X1
	VMOVQ        X1, R9      // g2 | g3<<32
	SHRQ         $32, AX
	IMUL3Q       $100000000, AX, AX
	MOVL         R9, R11
	ADDQ         R11, AX
	IMUL3Q       $100000000, AX, AX
	SHRQ         $32, R9
	ADDQ         R9, AX      // man

	// Round man·10^−nfrac: ±0 and Clinger's path at short, else
	// Eisel–Lemire. Each path leaves the float64's bits, sign and all, in DX.
	CMPL R12, $17
	JAE  short               // at most 15 significant digits

eisel:
	// R12 = &pow10Tab[−nfrac − pow10Min], 16 bytes an entry. R10 = exp2 − 2
	// for decimalToFloat's exp2 = 217706·(−nfrac)>>16 + 64 + 1023 − clz,
	// plus the sign at bit 11; the shift's exp2 −= 1 ^ msb adds msb, leaving
	// the final exp2 − 1, to which the round's leading bit 2⁵² adds the 1.
	// The normalized man goes to DX, MULX's implicit operand.
	MOVQ   R10, R11
	SHLQ   $4, R11
	LEAQ   ·pow10Tab+5568(SB), R12 // 5568 = −pow10Min·16
	SUBQ   R11, R12
	IMUL3Q $-217706, R10, R10
	SARQ   $16, R10
	SHLQ   $11, DX
	ADDQ   DX, R10
	BSRQ   AX, R11               // 63 − clz
	LEAQ   1022(R10)(R11*1), R10
	XORL   $63, R11              // clz
	SHLXQ  R11, AX, DX

	// The 64 × 64 product decides unless its low 9 bits are all ones and the
	// dropped part of the power could carry into them; then widen to 128.
	MULXQ 8(R12), AX, R11 // hi R11, lo AX
	MOVL  R11, R9
	ANDL  $0x1FF, R9
	CMPL  R9, $0x1FF
	JEQ   widen

shift:
	// Shift to 54 bits (exp2 −= 1 ^ msb); a product that is exactly
	// half-way is declined.
	MOVQ  R11, R9
	SHRQ  $63, R9              // msb
	ADDQ  R9, R10              // exp2 − 1
	ADDQ  $9, R9
	SHRXQ R9, R11, DX          // m = hi >> (msb + 9)
	TESTQ AX, AX
	JNE   round
	TESTL $0x1FF, R11
	JNE   round
	MOVL  DX, R9
	ANDL  $3, R9
	CMPL  R9, $1
	JEQ   stop

round:
	// Round 54 bits to 53: m += m & 1, m >>= 1 is (m + 1) >> 1. A carry
	// into bit 53 is decimalToFloat's extra shift and exp2++, here the add
	// into R10<<52.
	INCQ  DX
	SHRQ  $1, DX
	SHLQ  $52, R10
	ADDQ  R10, DX

store:
	MOVQ DX, (DI)
	ADDQ $8, DI

	// Step over a ',' that a byte above ' ' follows; stop at any other.
	CMPB (SI)(BX*1), $']'
	JEQ  done
	CMPB 1(SI)(BX*1), $' '
	JLS  done
	LEAQ 1(BX), CX
	CMPQ DI, R14
	JNE  token

stop:
	MOVB $0, done+72(FP)

exit:
	SUBQ out_base+32(FP), DI
	SHRQ $3, DI
	MOVQ DI, n+56(FP)
	MOVQ CX, next+64(FP)
	VZEROUPPER
	RET

done:
	MOVQ BX, CX
	MOVB $1, done+72(FP)
	JMP  exit

short:
	CMPL R12, $32
	JEQ  zero
	CMPL R10, $22
	JA   eisel
	VCVTSI2SDQ AX, X7, X0    // exact: man < 10¹⁵ < 2⁵³
	LEAQ       ·exactPow10(SB), R9
	VDIVSD     (R9)(R10*8), X0, X0
	VMOVQ      X0, R9
	SHLQ       $63, DX
	ORQ        R9, DX
	JMP        store

zero:
	SHLQ $63, DX
	JMP  store

widen:
	// lo + man carries: the dropped low word of the power may carry into
	// hi's low 9 bits. Add man·pow[0]'s high word to lo; still all ones
	// where lo would carry from ylo + man, the product is undecided.
	MOVQ  AX, R9
	ADDQ  DX, R9
	JCC   shift
	MULXQ 0(R12), R9, R12 // yhi R12, ylo R9
	ADDQ  R12, AX         // mlo
	ADCQ  $0, R11         // mhi
	CMPQ  AX, $-1
	JNE   shift
	MOVL  R11, R12
	ANDL  $0x1FF, R12
	CMPL  R12, $0x1FF
	JNE   shift
	ADDQ  DX, R9
	JCS   stop
	JMP   shift
