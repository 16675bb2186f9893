package service

import (
	"math"
	"math/bits"
	"slices"
)

// digitPairs is "00" "01" … "99": two decimal digits per table step.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendJSONFloat appends the finite f exactly as encoding/json writes a
// float64: strconv.AppendFloat's shortest round-trip digits, 'e' format iff
// |f| < 1e-6 or |f| ≥ 1e21 and 'f' otherwise, the two-digit exponent's
// leading zero dropped (e-09 → e-9), -0 kept. Those two are the
// specification (TestAppendJSONFloatVectors, FuzzAppendJSONFloat); the
// digits come from shortestDecimal instead.
//
//distlint:spec specAppendJSONFloat FuzzAppendJSONFloat
//distlint:hotpath
func appendJSONFloat(dst []byte, f float64) []byte {
	// The longest are 25 bytes: -0.00000ddddddddddddddddd, one more than
	// -d.dddddddddddddddde-308. Growing allocates only until the caller's
	// pooled buffer has reached its high-water mark.
	const maxLen = 32
	dst = slices.Grow(dst, maxLen)
	out := dst[len(dst) : len(dst)+maxLen]
	b, sign := math.Float64bits(f), 0
	if b>>63 != 0 {
		out[0], out, sign = '-', out[1:], 1
	}
	abs := math.Float64frombits(b &^ (1 << 63))
	if abs == 0 {
		out[0] = '0'
		return dst[:len(dst)+sign+1]
	}
	m, k := shortestDecimal(b)
	for m%10 == 0 {
		m /= 10
		k++
	}
	nd := 17 // m < 10^17
	for lim := uint64(1e16); m < lim; lim /= 10 {
		nd--
	}
	dp := nd + k // |f| = 0.m × 10^dp
	exp := abs < 1e-6 || abs >= 1e21

	// The digits land where the format wants all but the ones before the
	// point, which then move one byte left over the gap kept for them.
	at := 1
	switch {
	case exp:
	case dp <= 0:
		at = 2 - dp
		copy(out, "0.00000")
	case dp >= nd:
		at = 0
		copy(out[nd:], "00000000000000000000")
	}
	p := at + nd
	for m >= 1e8 { // eight digits at a time as four pairs that do not wait for each other
		lo := uint32(m % 1e8)
		m /= 1e8
		c, d := lo%1e4, lo/1e4
		p -= 8
		w := out[p : p+8 : p+8]
		w[0], w[1] = digitPairs[d/100*2], digitPairs[d/100*2+1]
		w[2], w[3] = digitPairs[d%100*2], digitPairs[d%100*2+1]
		w[4], w[5] = digitPairs[c/100*2], digitPairs[c/100*2+1]
		w[6], w[7] = digitPairs[c%100*2], digitPairs[c%100*2+1]
	}
	v := uint32(m) // < 10^9
	for ; v >= 100; v /= 100 {
		p -= 2
		out[p], out[p+1] = digitPairs[v%100*2], digitPairs[v%100*2+1]
	}
	if v >= 10 {
		out[p-2], out[p-1] = digitPairs[v*2], digitPairs[v*2+1]
	} else {
		out[p-1] = '0' + byte(v)
	}
	n := at + nd
	switch {
	case exp:
		out[0], out[1] = out[1], '.'
		if nd == 1 {
			n = 1
		}
		e := dp - 1
		out[n], out[n+1] = 'e', '+'
		if e < 0 {
			e, out[n+1] = -e, '-'
		}
		n += 2
		if e >= 100 {
			out[n] = '0' + byte(e/100)
			n++
		}
		if e >= 10 {
			out[n], out[n+1] = digitPairs[e%100*2], digitPairs[e%100*2+1]
			n += 2
		} else {
			out[n] = '0' + byte(e)
			n++
		}
	case at == 1:
		for i := 0; i < dp; i++ {
			out[i] = out[i+1]
		}
		out[dp] = '.'
	case at == 0:
		n = dp
	}
	return dst[:len(dst)+sign+n]
}

// shortestDecimal returns m and k with m·10^k the shortest decimal that
// reads back as the positive finite float64 whose bits (sign ignored) are b,
// the one closest to it among the shortest — strconv's choice. m may end in
// zeros. This is the Schubfach algorithm (R. Giulietti, "The Schubfach way
// to render doubles", 2020) with a 128-bit g = ⌊10^-k·2^-r⌋ + 1: pow10Tab's
// entry plus one, except where the entry is 10^-k exactly (0 ≤ -k ≤ 55).
//
//distlint:hotpath
func shortestDecimal(b uint64) (m uint64, k int) {
	c, q := b&(1<<52-1), int(b>>52&0x7FF)
	closer := c == 0 && q > 1 // the interval below a power of two is half as wide
	if q != 0 {
		c |= 1 << 52
	} else {
		q = 1
	}
	q -= 1075 // the value is c·2^q

	// k = ⌊log10(2^q)⌋, or ⌊log10(¾·2^q)⌋ below a power of two; h then
	// aligns 10^-k·2^q so the products below keep two fraction bits.
	k = q * 1262611 >> 22
	if closer {
		k = (q*1262611 - 524031) >> 22
	}
	h := uint(q + (-k*1741647)>>19 + 1)
	g := pow10Tab[-k-pow10Min]
	if k > 0 || k < -55 {
		var carry uint64
		g[0], carry = bits.Add64(g[0], 1, 0)
		g[1] += carry
	}

	// vb is 4·(the value·10^-k), vbl and vbr the same for the midpoints to
	// its neighbours; the low bit of each says "inexact" (round to odd).
	cb := c << 2
	cbl := cb - 2
	if closer {
		cbl = cb - 1
	}
	vbl, vb, vbr := roundToOdd(g, cbl<<h), roundToOdd(g, cb<<h), roundToOdd(g, (cb+2)<<h)
	lower, upper := vbl, vbr
	if c&1 != 0 { // an odd mantissa's interval excludes its ends
		lower, upper = vbl+1, vbr-1
	}

	s := vb >> 2
	if s >= 10 { // one digit fewer, if a multiple of ten is inside
		sp := s / 10
		down, up := lower <= 40*sp, 40*sp+40 <= upper
		if down != up {
			if up {
				sp++
			}
			return sp, k + 1
		}
	}
	down, up := lower <= 4*s, 4*s+4 <= upper
	if down != up {
		if up {
			s++
		}
		return s, k
	}
	// Both or neither inside: the closer of s and s+1, ties to even.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns the top 64 bits of the 192-bit product g·cp with the
// lowest of them set if any lower bit of the upper 128 is (the bottom 64
// never decide: Giulietti §9.1).
//
//distlint:hotpath
func roundToOdd(g [2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[0], cp)
	y1, y0 := bits.Mul64(g[1], cp)
	y0, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}
