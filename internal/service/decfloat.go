package service

import (
	"math"
	"math/big"
	"math/bits"
)

// pow10Min and pow10Max bound the decimal exponents pow10Tab covers, both
// inclusive.
const pow10Min, pow10Max = -348, 347

var (
	// pow10Tab[q-pow10Min] is the 128-bit mantissa of 10^q, rounded down and
	// normalized so its top bit is set, as {low, high} words: the toolchain's
	// strconv.detailedPowersOfTen, which TestPow10TableMatchesToolchain
	// holds it equal to. The binary exponent is implied by q.
	pow10Tab [pow10Max - pow10Min + 1][2]uint64
	// exactPow10 holds the powers of ten a float64 represents exactly.
	exactPow10 [23]float64
)

func init() {
	exactPow10[0] = 1
	for i := 1; i < len(exactPow10); i++ {
		exactPow10[i] = exactPow10[i-1] * 10 // exact: 5^22 < 2^53
	}
	ten, one, low := big.NewInt(10), big.NewInt(1), new(big.Int).SetUint64(math.MaxUint64)
	p, m := new(big.Int), new(big.Int)
	for q := pow10Min; q <= pow10Max; q++ {
		p.Exp(ten, m.SetInt64(int64(max(q, -q))), nil)
		if n := uint(p.BitLen()); q < 0 { // 2^(n-1) < p < 2^n, so the quotient has exactly 128 bits
			m.Quo(m.Lsh(one, 127+n), p)
		} else {
			m.Rsh(m.Lsh(p, 128), n)
		}
		pow10Tab[q-pow10Min][1] = p.Rsh(m, 64).Uint64()
		pow10Tab[q-pow10Min][0] = m.And(m, low).Uint64()
	}
}

// decimalToFloat returns the float64 nearest man·10^exp10, ties to even,
// with sign (0 or 1<<63) ORed into its sign bit — what strconv.ParseFloat
// returns for that decimal — or ok false where it cannot decide, and the
// caller asks ParseFloat. Both paths round the magnitude, which is exact
// for a signed result too: round-to-nearest-even is symmetric about 0, so
// (−x)·10^k is −(x·10^k) bit for bit, and a zero mantissa keeps its sign.
// Small cases take Clinger's exact path (man < 2^53 and a power of ten
// that is itself exact: one correctly rounded multiply or divide); the
// rest is the Eisel–Lemire algorithm, following eiselLemire64 in the
// toolchain's strconv/eisel_lemire.go step for step (see there, and
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, for the proof).
//
//distlint:hotpath
func decimalToFloat(man uint64, exp10 int, sign uint64) (f float64, ok bool) {
	if man == 0 {
		return math.Float64frombits(sign), true // ±0 whatever the exponent
	}
	if man>>53 == 0 && -22 <= exp10 && exp10 <= 22 {
		if f = float64(man); exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		return math.Float64frombits(math.Float64bits(f) | sign), true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Tab[exp10-pow10Min]

	// Normalize, and estimate the binary exponent: 217706/65536 ≈ log2(10).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The 64 × 64 product decides unless its low 9 bits are all ones and the
	// dropped part of the power could carry into them; then widen to 128.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yhi, ylo := bits.Mul64(man, pow[0])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Shift to 54 bits; a product that is exactly half-way is not decided
	// here (the truncated power may have hidden the tie-break).
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round 54 to 53 bits. A zero or wrapped exp2 is subnormal, 0x7FF or
	// above overflows: both are ParseFloat's to answer.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(sign | exp2<<52 | m&(1<<52-1)), true
}
