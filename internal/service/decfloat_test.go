package service

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// specFloat is the specification scanner.float is held to: the
// validate-then-reparse pair it replaced, kept verbatim — a walk that
// matches the RFC 8259 number grammar at d[i:], then strconv.ParseFloat
// over the token. It returns the value, the index past the token and the
// failure message ("" when accepted); a grammar failure leaves end at i.
func specFloat(d []byte, i int) (v float64, end int, msg string) {
	digits := func(i int) int {
		for d[i]-'0' <= 9 {
			i++
		}
		return i
	}
	start := i
	if d[i] == '-' {
		i++
	}
	end = digits(i)
	ok := end > i && (d[i] != '0' || end == i+1)
	if ok && d[end] == '.' {
		i = end + 1
		end = digits(i)
		ok = end > i
	}
	if ok && d[end]|0x20 == 'e' {
		i = end + 1
		if d[i] == '+' || d[i] == '-' {
			i++
		}
		end = digits(i)
		ok = end > i
	}
	if !ok {
		return 0, start, "want a number"
	}
	v, err := strconv.ParseFloat(unsafe.String(&d[start], end-start), 64)
	if err != nil {
		return v, end, "number out of float64 range"
	}
	return v, end, ""
}

// checkScanFloat runs scanner.float and specFloat over tok and requires the
// same verdict, the same message at the same offset, the same cursor and
// the same bits. It returns the value and whether both rejected tok.
func checkScanFloat(t *testing.T, tok string) (got float64, rejected bool) {
	t.Helper()
	d := append([]byte(tok), 0)
	want, end, msg := specFloat(d, 0)
	s := scanner{d: d}
	got = s.float()
	if msg != "" {
		wantErr := fmt.Sprintf("decoding body: %s at offset %d", msg, end)
		if s.err == nil || !strings.HasSuffix(s.err.Error(), wantErr) {
			t.Fatalf("%.60q: error %v, want %q", tok, s.err, wantErr)
		}
		return 0, true
	}
	if s.err != nil || s.i != end {
		t.Fatalf("%.60q: error %v, cursor %d; the specification accepts %d bytes", tok, s.err, s.i, end)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%.60q: %v (%#x), strconv.ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return got, false
}

// scanFloatVectors are the tokens the single-pass scan had to get right,
// with the verdict wanted; checkScanFloat holds each to the specification.
var scanFloatVectors = []struct {
	tok    string
	reject bool
}{
	{"-0", false}, {"-0.0e5", false},
	{"0e99999999999999999999", false}, // the exponent accumulator saturates, it does not wrap
	{"1e99999999999999999999", true},
	{"1e-99999999999999999999", false}, {"1e-400", false},
	// strconv saturates exponents at 10000, so to it (and so here) the first
	// is 10^(10000−99991) = 0 rather than 1e9. The second, 1e-10 on paper,
	// is 0 to it as well (its slow path stops counting digits at 800); with
	// more than 19 digits it is ParseFloat's to answer here too.
	{"0." + manyZeros + "1e100000", false},
	{"1" + manyZeros + "e-100000", false},
	{"4.9e-324", false},
	{"2.4703282292062327e-324", false}, {"2.4703282292062328e-324", false}, // either side of half the smallest subnormal
	{"1.7976931348623157e308", false}, {"1.7976931348623159e308", true},
	{"9007199254740993", false}, {"9007199254740992.5", false}, {"9007199254740995", false}, // half-way
	{"1e22", false}, {"1e23", false}, // the last exact power of ten, and the first that is not
	{"0." + strings.Repeat("0", 45) + "1234567890123456789", false}, // leading zeros are not significant digits
	{"0." + strings.Repeat("0", 45), false},
	{"0.1234567890123456789", false},
	{"123456789012345678901234567890", false},       // 30 digits: fallback
	{"1" + strings.Repeat("0", 29) + "e-30", false}, // trailing zeros count: fallback
	{"1234567890123456789", false},                  // 19 digits fill the mantissa
	{"12345678901234567890", false},                 // 20 wrap it: fallback
	{"18446744073709551616", false},                 // 2^64
	{"0.3", false}, {"1e-07", false}, {"2.5E+3", false},
	{"123456789e-348", false}, {"1e347", true}, {"1e-348", false}, {"1e308", false}, {"1e309", true}, // table edges
	{"+1", true}, {"01", true}, {".5", true}, {"1.", true}, {"1.e5", true},
	{"0x1p-3", false}, {"1_0", false}, // the grammar stops after the first digit; the document scan fails on what follows
	{"Inf", true}, {"NaN", true}, {"-", true}, {"1e", true}, {"1e+", true}, {"", true},
}

// manyZeros is long enough for a token's leading fractional zeros to cancel
// an exponent past strconv's saturation point.
var manyZeros = strings.Repeat("0", 99990)

// scanFloatPins are the values wanted whatever strconv says: signed zero,
// ties to even, and the boundaries of the float64 range.
var scanFloatPins = map[string]float64{
	"-0": math.Copysign(0, -1), "-0.0e5": math.Copysign(0, -1),
	"0e99999999999999999999": 0, "1e-400": 0, "0." + manyZeros + "1e100000": 0, "1" + manyZeros + "e-100000": 0,
	"2.4703282292062327e-324": 0, "2.4703282292062328e-324": math.SmallestNonzeroFloat64,
	"1.7976931348623157e308": math.MaxFloat64,
	"9007199254740993":       9007199254740992, "9007199254740992.5": 9007199254740992, "9007199254740995": 9007199254740996,
}

func TestScanFloatVectors(t *testing.T) {
	for _, c := range scanFloatVectors {
		got, rejected := checkScanFloat(t, c.tok)
		if rejected != c.reject {
			t.Errorf("%.40q: rejected = %v, want %v", c.tok, rejected, c.reject)
		} else if pin, ok := scanFloatPins[c.tok]; ok && math.Float64bits(got) != math.Float64bits(pin) {
			t.Errorf("%.40q: %v (%#x), want %v", c.tok, got, math.Float64bits(got), pin)
		}
	}
}

// scanFloatSeeds calls add with n rounds of the spellings clients send:
// shortest 'g', 'e' at every precision 0..21 and 'f' of random bit
// patterns, N(0,1) scaled across 10^±20, and 54-bit integers times 10^0..24.
func scanFloatSeeds(n int, add func(string)) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		add(strconv.FormatFloat(v, 'g', -1, 64))
		add(strconv.FormatFloat(v, 'e', i%22, 64))
		if math.Abs(v) < 1e30 && math.Abs(v) > 1e-30 {
			add(strconv.FormatFloat(v, 'f', -1, 64))
		}
		add(strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(41)-20)), 'g', -1, 64))
		add(strconv.FormatUint(rng.Uint64()>>10, 10) + strings.Repeat("0", rng.Intn(25)))
	}
}

// FuzzScanFloat is the differential proof behind reading each number once:
// on every token scanner.float and the validate-then-ParseFloat
// specification agree on accept or reject, on the message and offset, on
// where the token ends and, when accepted, on every bit of the value.
func FuzzScanFloat(f *testing.F) {
	for _, c := range scanFloatVectors {
		if len(c.tok) < 1000 { // the engine dwells on a 100 KB seed
			f.Add(c.tok)
		}
	}
	scanFloatSeeds(40, func(tok string) { f.Add(tok) })
	f.Fuzz(func(t *testing.T, tok string) { checkScanFloat(t, tok) })
}

// TestScanFloatDifferential runs the fuzz property over enough generated
// tokens for a plain `go test` to catch a wrong table entry or rounding step.
func TestScanFloatDifferential(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	scanFloatSeeds(n, func(tok string) { checkScanFloat(t, tok) })
}

// TestPow10TableMatchesToolchain holds the table computed at init equal to
// the one strconv itself converts with, read out of the toolchain's source.
func TestPow10TableMatchesToolchain(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(runtime.GOROOT(), "src", "strconv", "eisel_lemire.go"))
	if err != nil {
		t.Skipf("SKIPPED, THE TABLE IS NOT COMPARED WITH strconv'S: %v", err)
	}
	rows := regexp.MustCompile(`\{0x([0-9A-F]{16}), 0x([0-9A-F]{16})\}, // 1e(-?\d+)`).FindAllSubmatch(src, -1)
	if len(rows) != len(pow10Tab) {
		t.Fatalf("%d table rows in the toolchain's source, want %d", len(rows), len(pow10Tab))
	}
	for i, row := range rows {
		lo, _ := strconv.ParseUint(string(row[1]), 16, 64)
		hi, _ := strconv.ParseUint(string(row[2]), 16, 64)
		if q, _ := strconv.Atoi(string(row[3])); q != pow10Min+i || pow10Tab[i] != [2]uint64{lo, hi} {
			t.Errorf("row %d: toolchain 1e%d = {%#x, %#x}, init computed 1e%d = %#x", i, q, lo, hi, pow10Min+i, pow10Tab[i])
		}
	}
}

// TestDecimalToFloatSweep needs no source tree: over every exponent of the
// table (and one past each end) and mantissas at the edges of both paths,
// whatever decimalToFloat answers is what strconv.ParseFloat answers.
func TestDecimalToFloatSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mans := []uint64{0, 1, 1<<53 - 1, 1<<53 + 1, 1e19 - 1}
	answered, asked := 0, 0
	for q := pow10Min - 1; q <= pow10Max+1; q++ {
		mans = mans[:5]
		for i := 0; i < 64; i++ {
			mans = append(mans, rng.Uint64()%1e19>>(i%60))
		}
		for _, man := range mans {
			for _, neg := range []bool{false, true} {
				tok := fmt.Sprintf("%de%d", man, q)
				if neg {
					tok = "-" + tok
				}
				asked++
				got, ok := decimalToFloat(man, q, neg)
				if !ok {
					continue
				}
				answered++
				if want, err := strconv.ParseFloat(tok, 64); err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: %v (%#x), strconv.ParseFloat %v (%#x, error %v)", tok, got, math.Float64bits(got), want, math.Float64bits(want), err)
				}
			}
		}
	}
	t.Logf("%d of %d answered without strconv", answered, asked)
	if answered < asked/2 {
		t.Errorf("only %d of %d answered: the fast path is not being taken", answered, asked)
	}
}
