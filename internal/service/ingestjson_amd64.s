//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 body of scanRow, in two stages: the first indexes the row's
// tokens, the second reads and rounds the tokens indexed. scanRowGo
// (ingestjson.go), floatAt per token, is the specification: a token taken
// here is stored as the float64 floatAt returns for it, and the cursor
// stops where scanRowGo's does.
//
// The index stage walks the row from the cursor 64 bytes a step (one
// 32-byte window in the last 64 bytes below cap(d)). A compare marks a
// window's commas, an add and a compare its stops, the bytes outside ',' …
// '9'; the first stop ends the index. The commas before it, and the stop
// itself when it is a ']', are the ends of the row's tokens, written to the
// frame in order, four a step without a branch (TZCNT's carry tells an end
// from a spent mask, and SBB counts only the ends), up to the room in out
// or 64. A token may straddle steps: a comma ends it wherever its step
// starts. No step waits on a token, and the index reads no byte past
// cap(d).
//
// The second stage has two passes over the tokens indexed. The first takes
// each token from its start (the cursor, then one past the last end) to its
// end and loads A, the 32 bytes before the end. Its bytes are digits, '-',
// '.' or '/' (the index let no other through); past a leading '-', its
// lanes below '0' must be a point with digits on both sides, or none: the
// token is -?(0|[1-9][0-9]*)(.[0-9]+)? with 1–24 walked digits. Then the
// digits are folded, right-aligned, with zeros before them: for -?0.ddd,
// the token's last nfrac lanes of A; else a blend under the mask of A's
// last nfrac lanes with B, the 32 bytes a byte earlier, in which the
// integer digits sit just left of the fraction's lanes in A, and a mask of
// the last nd lanes. VPMADDUBSW makes pairs, VPMADDWD fours, VPACKUSDW and
// a second VPMADDWD eights, one 32-bit group a 8 lanes (g0 … g3, g0 = 0 as
// nd ≤ 24), and man = (g1·10⁸ + g2)·10⁸ + g3, taken when g1 < 1000, that is
// man < 10¹⁹: at most 19 significant digits (a 0.000…'s zeros are walked,
// not significant). Lemire, "Number Parsing at a Gigabyte per Second",
// 2021, folds eight digits so. man goes to out, nfrac and the sign to the
// frame. The loads reach 33 bytes before a token's end: the kernel takes no
// token that starts before d[32].
//
// The second pass rounds man·10^−nfrac in place, as decimalToFloat
// (decfloat.go) rounds it, step for step: ±0 for man = 0; Clinger's exact
// path (one correctly rounded divide) for man < 10¹⁵ and nfrac ≤ 22; else
// Eisel–Lemire over pow10Tab. Where decimalToFloat declines (the 128-bit
// product still ambiguous, or a product exactly half-way) the kernel
// declines the token. 1e-23 ≤ |value| < 1e19, so the biased exponent lies
// in 946…1086: decimalToFloat's subnormal and overflow exits cannot be
// reached and have no copy here.
//
// A pass that declines a token ends the passes there: n is the tokens
// before it and the cursor is on it, for floatAt. With every indexed token
// taken the kernel looks past the last end: at ']', or a ',' followed by a
// byte up to ' ', the walk is done; past any other ',' is a token the index
// did not reach. The passes run apart so that each loop's chain is short
// and the core overlaps many tokens: fused into one loop, they measured no
// faster than the kernel they replaced, which walked a token at a time.
//
// Registers. Index: SI d, CX the cursor, R8 the last start of a 64-byte
// step (cap(d) − 64), R9 the step's start, R10 the ends written, R14 the
// room, R11 the commas, BX the stops, then the first stop. Passes: SI d, DI
// out, R14 the token, R8 the tokens the pass may take, CX the token's start
// and BX its end; in the first, R13 rowTail, AX the token's length, then
// nd, then man, DX 1 past a '-' (so the sign), R12 its first digit, R10 the
// digits before the point, then nfrac, R11 the bytes below '0', then the
// blend's lanes; in the second, R13 &pow10Tab[−pow10Min][1], BX 10¹⁵, AX
// man, R10 nfrac, then exp2, R11 −2·nfrac, DX the sign, then the bits, and
// R9 and R12 for the rounding. Y15 '0', Y14 ',', Y13 and Y12 the stop
// test's 0x46 and 0x72, Y11–Y9 the fold's weights, Y7 zero.
//
// The frame: at 0 the ends, 64 and the three a step's last END may write
// past them and the ']'; at 544 nfrac and the sign, a byte each a token; at
// 672 the tokens indexed.

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

// rowConst<> holds the dwords the kernel broadcasts: '0', ',', 0x46 and
// 0x72 in every byte, then the fold's weights: bytes 10, 1; words 100, 1;
// words 10000, 1.
DATA rowConst<>+0(SB)/4, $0x30303030
DATA rowConst<>+4(SB)/4, $0x2c2c2c2c
DATA rowConst<>+8(SB)/4, $0x46464646
DATA rowConst<>+12(SB)/4, $0x72727272
DATA rowConst<>+16(SB)/4, $0x010a010a
DATA rowConst<>+20(SB)/4, $0x00010064
DATA rowConst<>+24(SB)/4, $0x00012710
GLOBL rowConst<>(SB), RODATA|NOPTR, $28

// MARK leaves in c the commas of the 32 bytes in x and in t its stops, the
// bytes outside ',' … '9': adding 0x46 maps that range, and no other byte,
// onto 0x72 … 0x7f, the top of the signed bytes.
#define MARK(x, c, t) \
	VPCMPEQB Y14, x, c; \
	VPADDB   Y13, x, t; \
	VPCMPGTB t, Y12, t

// END records the lowest comma left in R11 as the next end and clears it;
// with R11 spent it writes past the last end and does not count it.
#define END \
	TZCNTQ R11, AX; \
	LEAQ   (R9)(AX*1), AX; \
	MOVQ   AX, (SP)(R10*8); \
	SBBQ   $-1, R10; \
	BLSRQ  R11, R11

// func scanRowAVX2(d []byte, i int, out []float64) (n, next int, done bool)
TEXT ·scanRowAVX2(SB), NOSPLIT, $680-73
	MOVQ d_base+0(FP), SI
	MOVQ i+24(FP), CX
	XORL R14, R14
	CMPQ CX, $32
	JLT  stop
	MOVQ out_len+40(FP), R14
	MOVL $64, AX
	CMPQ R14, AX
	CMOVQGT AX, R14
	MOVQ d_cap+16(FP), R8
	SUBQ $64, R8
	VPBROADCASTD rowConst<>+0(SB), Y15
	VPBROADCASTD rowConst<>+4(SB), Y14
	VPBROADCASTD rowConst<>+8(SB), Y13
	VPBROADCASTD rowConst<>+12(SB), Y12
	VPBROADCASTD rowConst<>+16(SB), Y11
	VPBROADCASTD rowConst<>+20(SB), Y10
	VPBROADCASTD rowConst<>+24(SB), Y9
	VPXOR        Y7, Y7, Y7
	MOVQ         CX, R9
	XORL         R10, R10
	CMPQ         R9, R8
	JGT          tail

step:
	VMOVDQU   (SI)(R9*1), Y0
	VMOVDQU   32(SI)(R9*1), Y1
	MARK(Y0, Y2, Y4)
	MARK(Y1, Y3, Y5)
	VPMOVMSKB Y2, R11
	VPMOVMSKB Y3, AX
	SHLQ      $32, AX
	ORQ       AX, R11        // the commas
	VPMOVMSKB Y4, BX
	VPMOVMSKB Y5, AX
	SHLQ      $32, AX
	ORQ       AX, BX         // the stops

tally:
	TZCNTQ BX, BX            // the first stop; 64 for none
	BZHIQ  BX, R11, R11      // the commas before it
	END
	END
	END
	END
	JNZ    more
	CMPL   BX, $64
	JNE    last

advance:
	CMPQ R10, R14
	JAE  round
	ADDQ $64, R9
	CMPQ R9, R8
	JLE  step

tail:
	// Within 64 bytes of cap(d): one 32-byte window, and a stop after it.
	LEAQ      32(R8), AX
	CMPQ      R9, AX
	JGT       round
	VMOVDQU   (SI)(R9*1), Y0
	MARK(Y0, Y2, Y4)
	VPMOVMSKB Y2, R11
	VPMOVMSKB Y4, BX
	BTSQ      $32, BX
	JMP       tally

more:
	CMPQ R10, R14
	JAE  round
	END
	JNZ  more
	CMPL BX, $64
	JNE  last
	JMP  advance

last:
	// The stop ends the index; it is the last end when it is a ']'.
	ADDQ R9, BX
	CMPQ BX, d_cap+16(FP)
	JAE  round
	CMPB (SI)(BX*1), $']'
	JNE  round
	MOVQ BX, (SP)(R10*8)
	INCQ R10

round:
	MOVQ    R10, R8
	CMPQ    R8, R14
	CMOVQGT R14, R8          // the tokens indexed
	MOVQ    R8, 672(SP)
	XORL    R14, R14
	TESTQ   R8, R8
	JZ      stop
	MOVQ    out_base+32(FP), DI
	LEAQ    rowTail<>(SB), R13

token:
	// The token is [CX, BX). Past a leading '-', its bytes below '0' must
	// be one point with digits on both sides, or none.
	MOVQ      (SP)(R14*8), BX
	VMOVDQU   -32(SI)(BX*1), Y0  // A
	VPCMPGTB  Y0, Y15, Y1
	VPMOVMSKB Y1, R11
	MOVQ      BX, AX
	SUBQ      CX, AX
	XORL      DX, DX
	CMPB      (SI)(CX*1), $'-'
	SETEQ     DL
	SUBL      DX, AX         // the token's digits and point
	LEAL      -1(AX), R10
	CMPL      R10, $24
	JA        declined       // none, or more than 25
	LEAQ      (CX)(DX*1), R12 // its first digit
	MOVL      AX, R10
	NEGL      R10
	SHRXL     R10, R11, R11  // bit k: the k-th byte from the first digit is no digit
	CMPL      R11, $2
	JNE       general
	MOVWLZX   (SI)(R12*1), R10
	CMPL      R10, $0x2e30
	JNE       general        // not "0." then digits
	LEAL      -2(AX), R10    // nfrac
	TESTL     R10, R10
	JZ        declined
	VPSUBB    Y15, Y0, Y1    // -?0.ddd: the digits are A's last nfrac lanes
	VPAND     (R13)(R10*1), Y1, Y1
	JMP       digits

general:
	ADDQ      SI, R12
	TZCNTL    R11, R10       // the digits before the point
	JCS       integer
	BLSRL     R11, R11
	JNZ       declined       // a second point or '-'
	CMPB      (R12)(R10*1), $'.'
	JNE       declined       // a '-' past the start
	DECL      AX             // nd
	CMPL      R10, $1
	JNE       intpart

fraction:
	NEGL R10
	ADDL AX, R10             // nfrac
	JZ   declined            // no digit after the point
	MOVL R10, R11            // the blend takes the last nfrac lanes from A

fold:
	// Fold the digits, right-aligned: A is the 32 bytes before the end, B
	// those a byte earlier.
	VMOVDQU    -33(SI)(BX*1), Y1
	VMOVDQU    (R13)(R11*1), Y2
	VPBLENDVB  Y2, Y0, Y1, Y1
	VPSUBB     Y15, Y1, Y1
	VPAND      (R13)(AX*1), Y1, Y1

digits:
	VPMADDUBSW Y11, Y1, Y1
	VPMADDWD   Y10, Y1, Y1
	VPACKUSDW  Y1, Y1, Y1
	VPMADDWD   Y9, Y1, Y1

	VMOVQ        X1, AX      // g0 | g1<<32
	VEXTRACTI128 $1, Y1, X1
	VMOVQ        X1, R9      // g2 | g3<<32
	SHRQ         $32, AX
	CMPQ         AX, $1000
	JAE          declined    // man ≥ 10¹⁹: more than 19 significant digits
	IMUL3Q       $100000000, AX, AX
	MOVL         R9, R11
	ADDQ         R11, AX
	IMUL3Q       $100000000, AX, AX
	SHRQ         $32, R9
	ADDQ         R9, AX      // man

	// The rounding pass reads man from out, nfrac and the sign from the frame.
	MOVQ AX, (DI)(R14*8)
	MOVB R10, 544(SP)(R14*2)
	MOVB DX, 545(SP)(R14*2)
	INCQ R14
	LEAQ 1(BX), CX
	CMPQ R14, R8
	JNE  token
	JMP  rounds

intpart:
	// No digit before the point, or more than one: none may be a leading zero.
	TESTL R10, R10
	JZ    declined
	CMPB  (R12), $'0'
	JNE   fraction
	JMP   declined

integer:
	XORL R10, R10
	MOVL $32, R11            // every lane from A
	CMPL AX, $1
	JEQ  fold
	CMPB (R12), $'0'
	JEQ  declined            // a leading zero
	CMPL AX, $24
	JBE  fold

declined:
	MOVQ R14, R8

rounds:
	XORL  R14, R14
	TESTQ R8, R8
	JZ    finish
	LEAQ  ·pow10Tab+5576(SB), R13 // &pow10Tab[−pow10Min][1]; 5568 = −pow10Min·16
	MOVQ  $1000000000000000, BX   // 10¹⁵

next:
	// Round man·10^−nfrac: ±0 and Clinger's path at short, else
	// Eisel–Lemire. Each path leaves the float64's bits, sign and all, in DX.
	MOVQ    (DI)(R14*8), AX       // man
	MOVBLZX 544(SP)(R14*2), R10   // nfrac
	MOVBLZX 545(SP)(R14*2), DX    // the sign
	CMPQ    AX, BX
	JB      short                 // at most 15 significant digits

eisel:
	// R13 + 8·R11 = &pow10Tab[−nfrac − pow10Min][1], 16 bytes an entry.
	// R10 = exp2 − 2 for decimalToFloat's exp2 = 217706·(−nfrac)>>16 + 64 +
	// 1023 − clz, plus the sign at bit 11; the shift's exp2 −= 1 ^ msb adds
	// msb, leaving the final exp2 − 1, to which the round's leading bit 2⁵²
	// adds the 1. The normalized man goes to DX, MULX's implicit operand.
	IMUL3Q $-2, R10, R11
	IMUL3Q $-217706, R10, R10
	SARQ   $16, R10
	SHLQ   $11, DX
	ADDQ   DX, R10
	BSRQ   AX, R9                // 63 − clz
	LEAQ   1022(R10)(R9*1), R10
	XORL   $63, R9               // clz
	SHLXQ  R9, AX, DX

	// The 64 × 64 product decides unless its low 9 bits are all ones and the
	// dropped part of the power could carry into them; then widen to 128.
	MULXQ (R13)(R11*8), AX, R9 // hi R9, lo AX
	LEAL  1(R9), R12
	TESTL $0x1FF, R12
	JZ    widen

shift:
	// Shift to 54 bits (exp2 −= 1 ^ msb); a product that is exactly
	// half-way is declined.
	MOVQ  R9, R12
	SHRQ  $63, R12             // msb
	ADDQ  R12, R10             // exp2 − 1
	ADDQ  $9, R12
	SHRXQ R12, R9, DX          // m = hi >> (msb + 9)
	TESTQ AX, AX
	JNE   round53
	TESTL $0x1FF, R9
	JNE   round53
	MOVL  DX, R12
	ANDL  $3, R12
	CMPL  R12, $1
	JEQ   finish

round53:
	// Round 54 bits to 53: m += m & 1, m >>= 1 is (m + 1) >> 1. A carry
	// into bit 53 is decimalToFloat's extra shift and exp2++, here the add
	// into R10<<52.
	INCQ  DX
	SHRQ  $1, DX
	SHLQ  $52, R10
	ADDQ  R10, DX

store:
	MOVQ DX, (DI)(R14*8)
	INCQ R14
	CMPQ R14, R8
	JNE  next

finish:
	// A pass declined the token at R14, or every indexed token is taken.
	// Then, past ']' or a ',' that a byte up to ' ' follows, the walk is
	// done; past any other ',' the next token is one the index did not reach.
	CMPQ R14, 672(SP)
	JNE  undecided
	MOVQ -8(SP)(R14*8), BX
	LEAQ 1(BX), CX
	CMPB (SI)(BX*1), $']'
	JEQ  done
	CMPB 1(SI)(BX*1), $' '
	JLS  done

stop:
	MOVB $0, done+72(FP)

exit:
	MOVQ R14, n+56(FP)
	MOVQ CX, next+64(FP)
	VZEROUPPER
	RET

done:
	MOVQ BX, CX
	MOVB $1, done+72(FP)
	JMP  exit

undecided:
	// The cursor goes back to the start of the token a pass declined.
	MOVQ  i+24(FP), CX
	TESTQ R14, R14
	JZ    stop
	MOVQ  -8(SP)(R14*8), CX
	INCQ  CX
	JMP   stop

short:
	TESTQ AX, AX
	JZ    zero
	CMPL  R10, $22
	JA    eisel
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
	MOVQ  AX, R12
	ADDQ  DX, R12
	JCC   shift
	MULXQ -8(R13)(R11*8), R12, CX // yhi CX, ylo R12
	ADDQ  CX, AX                  // mlo
	ADCQ  $0, R9                  // mhi
	CMPQ  AX, $-1
	JNE   shift
	LEAL  1(R9), CX
	TESTL $0x1FF, CX
	JNZ   shift
	ADDQ  DX, R12
	JCS   finish
	JMP   shift
