package service

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// specJSONFloat is the specification appendJSONFloat is held to: what
// encoding/json makes of a float64.
func specJSONFloat(t testing.TB, f float64) string {
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	return string(want)
}

// specAppendJSONFloat is the same specification without the reflection:
// encoding/json's floatEncoder, kept for the timing comparison in
// TestQueryEncodeGuard (checkJSONFloat holds it equal to json.Marshal too).
func specAppendJSONFloat(b []byte, f float64) []byte {
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// checkJSONFloat requires appendJSONFloat to extend dst with exactly the
// specification's bytes, for f and -f.
func checkJSONFloat(t testing.TB, f float64) {
	for _, f := range [2]float64{f, -f} {
		const prefix = "[1,"
		got := string(appendJSONFloat([]byte(prefix), f))
		want := prefix + specJSONFloat(t, f)
		if spec := string(specAppendJSONFloat([]byte(prefix), f)); got != want || spec != want {
			t.Errorf("bits %#016x: appendJSONFloat %s, strconv under encoding/json's rule %s, encoding/json %s", math.Float64bits(f), got, spec, want)
		}
	}
}

// jsonFloatVectors are the cases a shortest-digit formatter gets wrong
// first: the 'e'/'f' seams, powers of two (the interval below one is half as
// wide), subnormals, integers ending in zeros, one-, two- and three-digit
// exponents, and the hard cases of $GOROOT/src/strconv/ftoa_test.go.
var jsonFloatVectors = []float64{
	0, 1, 2, 10, 12, 100, 1e3, 1e10, 123456700, 1234567.8, 1e15, 1e16, 1e17, 1e20, 3e20,
	9.999999e-7, math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), 1.5e-6, .000004, .00004, .0004, .004, .04, .4,
	math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), 1.5e21, 1e22,
	1 << 53, 1<<53 - 1, 1<<53 + 2, 1 << 52, 1<<52 + 1, 1 << 62, 1 << 63, 1 << 64,
	5e-324, 1e-323, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	2.2250738585072014e-308, 2.2250738585072011e-308, 2.2250738585072012e-308, // the subnormal seam and the Java/PHP hangs
	1e23, math.Nextafter(1e23, 0), math.Nextafter(1e23, math.Inf(1)), 5.8339553793802237e+23,
	383260575764816448, 498484681984085570, 108678236358137.625, 1234567890123456.5, 1234567890123457.5,
	1.2345, 1.2355, 1.2345e6, 123.45, 0.05, 0.09, 0.0999, 0.5, 0.9, 1.5, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3,
	1e-7, 1e-9, 1.25e-9, 1e-10, 1e-99, 1.7e-99, 1e-100, 1e-307, 1e-308, 1e99, 1e100, 1.7e100, 1e308,
	9.5367431640625e-7, 4.94e-322, 8.41e-322, 1.8446744073709552e19, 9007199254740993, 2.98023223876953125e-8,
}

// TestAppendJSONFloatVectors is the table half of the differential proof:
// the named cases, then every biased exponent with the four mantissas that
// exercise the power-of-two boundary, its neighbours and the odd/even ends.
func TestAppendJSONFloatVectors(t *testing.T) {
	for _, f := range jsonFloatVectors {
		checkJSONFloat(t, f)
	}
	for exp := uint64(0); exp <= 2046; exp++ {
		for _, man := range [4]uint64{0, 1, 1 << 51, 1<<52 - 1} {
			checkJSONFloat(t, math.Float64frombits(exp<<52|man))
		}
	}
	// 'e' is picked by the value, not by the digits: pin the clean-up rule.
	for f, want := range map[float64]string{
		1e-7: "1e-7", 1.5e-10: "1.5e-10", 1e21: "1e+21", 1e-100: "1e-100", 1e100: "1e+100",
		math.Copysign(0, -1): "-0", 100: "100", 1e20: "100000000000000000000", 1e-6: "0.000001",
	} {
		if got := string(appendJSONFloat(nil, f)); got != want {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// jsonFloatSeeds yields n floats of the kinds a Gram answer holds and the
// kinds it does not: raw bit patterns, scaled normals, short decimals,
// integers.
func jsonFloatSeeds(n int, yield func(float64)) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < n; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			yield(f)
		}
		yield(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30)))
		short, _ := strconv.ParseFloat(strconv.FormatFloat(rng.Float64()*1e4, 'f', rng.Intn(6), 64), 64)
		yield(short)
		yield(float64(rng.Int63() >> uint(rng.Intn(63))))
	}
}

// TestAppendJSONFloatDifferential runs the fuzz property over enough
// generated values for a plain `go test` to catch a wrong table entry.
func TestAppendJSONFloatDifferential(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	jsonFloatSeeds(n, func(f float64) { checkJSONFloat(t, f) })
}

// FuzzAppendJSONFloat is the differential proof behind formatting a query
// answer without strconv: on every finite bit pattern appendJSONFloat and
// encoding/json write the same bytes.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range jsonFloatVectors {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			return
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkJSONFloat(t, v)
	})
}
