//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5) and the OS saves
// the YMM state across context switches: OSXSAVE and AVX in leaf 1 ECX
// (bits 27, 28), and XCR0 bits 1 and 2 through XGETBV. BMI1 and BMI2 are
// leaf 7 EBX bits 3 and 8.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
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
	ANDL   $0x128, BX
	CMPL   BX, $0x128
	SETEQ  ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
