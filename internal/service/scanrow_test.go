package service

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// rowBody names one body of scanRow; rowBodies (per architecture) lists
// those that can run here, and use selects one.
type rowBody struct {
	name string
	avx2 bool
}

// specRow is the walk scanRow is held to, over specFloat, the
// validate-then-ParseFloat specification of floatAt: tokens separated by a
// ',' that a byte above ' ' follows, every value appended, the cursor left
// on the separator that ends the walk or, with a failure, where specFloat
// reports it.
func specRow(d []byte, i int) (flat []float64, next int, bad string) {
	for {
		v, end, msg := specFloat(d, i)
		flat = append(flat, v)
		if msg != "" || d[end] != ',' || d[end+1] <= ' ' {
			return flat, end, msg
		}
		i = end + 1
	}
}

// rowLead spaces a row past the 32 bytes before a token that the AVX2 body
// loads from.
const rowLead = 32

// checkScanRow walks row, lead bytes into a body, under every body of
// scanRow and requires specRow's floats bit for bit, its cursor and its
// message. The body ends in its NUL and, with pad, 32 bytes of capacity
// past it that hold digits, so a walk that read them would show.
func checkScanRow(t *testing.T, row string, lead int, pad bool) {
	t.Helper()
	d := append(bytes.Repeat([]byte{' '}, lead), row...)
	n := len(d) + 1
	if d = append(d, 0); pad {
		d = append(d, strings.Repeat("7", 32)...)
	}
	d = d[:n:len(d)]
	want, wantNext, wantBad := specRow(d, lead)
	for _, rb := range rowBodies {
		restore := rb.use()
		got, next, bad := scanRow(d, lead, nil)
		restore()
		if next != wantNext || bad != wantBad || len(got) != len(want) {
			t.Fatalf("%s body, %.80q at %d (pad %v): %d floats, cursor %d, %q; the specification reads %d, %d, %q",
				rb.name, row, lead, pad, len(got), next, bad, len(want), wantNext, wantBad)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s body, %.80q at %d (pad %v): float %d is %v (%#x), strconv.ParseFloat gives %v (%#x)",
					rb.name, row, lead, pad, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
	}
}

// scanRowVectors are the row shapes at the kernel's edges: a token that
// ends at byte 31 of its window and one at byte 32, 19 and 20 walked
// digits (integers, fractions and a 0.000… whose zeros are not
// significant), 20 to 25 walked digits with at most 19 significant, 20
// significant (one past 2⁶⁴), the rounding's edges — an exact tie the
// kernel must decline, a product only the 128-bit widening rounds right
// (found by a search over 16–19-digit tokens), 15 and 16 significant
// digits either side of Clinger's gate, the second double-rounding under
// Clinger's divide — signed zeros, an exponent, whitespace inside the row,
// a leading zero, the grammar's near misses, an empty row, the separators
// that end a walk and rows longer than the room one growth gives.
var scanRowVectors = []string{
	"1." + strings.Repeat("2", 29) + ",5]", // 31 bytes: the ',' is byte 31 of the window
	"1." + strings.Repeat("2", 30) + ",5]", // 32 bytes: no delimiter in the window
	"-1." + strings.Repeat("2", 28) + "]",
	"1234567890123456789,-1234567890123456789]", "12345678901234567890,1]", "99999999999999999999,1]",
	"0.123456789012345678,1.23456789012345678]", "0.1234567890123456789,12345678901234567.89]",
	"0." + strings.Repeat("0", 25) + "123]", "0.00012345678901234567,-0.0012345678901234567]",
	"9007199254740993,9007199254740992.5,9007199254740995]", // half-way: decimalToFloat declines
	"9007199254740993]", "192.6006421785453,-389033849.2616494]", // a tie; the widening
	"93.8878012221113,93.88780122211139,-910792.5863714331]",                       // 15, then 16 significant digits
	"0.0000123456789012345,0.00000000000000001234567890123456789]",                 // 20 and 36 walked
	"0.000012345678901234567,-0.0000000000000000000001,0.00000000000000000000012]", // 22, 23 and 24 walked
	"0.000000000000000000000012,0.00000000000000000012345678]",                     // 25 and 27 walked
	"0.12345678901234567891,0.98765432109876543210,12345678901234567.891]",         // 20 significant
	"-0,0,-0.0,0.000,-0.0000000000000000000000,0.0,-0.000]",
	"1e5,2]", "1,2E-3,3]", "1.5e+300,2]", "1e400,2]",
	"1, 2]", "1 ,2]", "1,\t2]", "1,\n2]", "1\n]", "1 ]",
	"01,2]", "1,02]", "-01]", "00.5]", "1,-0.5,0.5]",
	"+1]", ".5]", "1.]", "-]", "1.2.3]", "1-2]", "--1]", "1,]", ",1]", "]", "1,2,]",
	"1,2}", "1,null]", "1,\"2\"]", "1,2", "1,2,3\x00",
	"7,8,9]", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52]",
	strings.Repeat("0.5,", 64) + "1e2," + strings.Repeat("-2.25,", 70) + "3]",
	// The index stage: a token across a step's end (byte 64 of the row),
	// rows of 63, 64 and 65 tokens (one call's room), tokens the kernel
	// declines in the middle of a long row (an exponent, a space, 25
	// digits, a tie, a '-' or a second point inside a token, the '/' the
	// index lets through), after which the walk re-enters the kernel.
	strings.Repeat("1.2345,", 9) + "123456789.5,-0.000123456789012345,7]",
	strings.Repeat("0.5,", 62) + "1]", strings.Repeat("-0.25,", 63) + "1]", strings.Repeat("0.125,", 64) + "1]",
	strings.Repeat("0.5,", 40) + "1e5," + strings.Repeat("-0.25,", 40) + "3]",
	strings.Repeat("0.5,", 40) + "1, 2," + strings.Repeat("-0.25,", 40) + "3]",
	strings.Repeat("0.5,", 40) + "1234567890123456789012345," + strings.Repeat("-0.25,", 40) + "3]",
	strings.Repeat("0.5,", 40) + "9007199254740993," + strings.Repeat("-0.25,", 40) + "3]",
	strings.Repeat("0.5,", 40) + "1.2.3," + strings.Repeat("-0.25,", 40) + "3]",
	strings.Repeat("0.5,", 40) + "12-3," + strings.Repeat("-0.25,", 40) + "3]",
	"0.1.2]", "0-12]", "-0-5]", "0..5]", "-.5]", "0.5.]", "0/5]", "1/2]", "-0/5]", "0.5/]", "/5]",
}

// TestScanRowVectors holds both bodies of scanRow to the specification on
// every vector, at leads either side of the kernel's 32 and with and
// without capacity past the NUL; then with the last token starting 33 to
// 0 bytes before the end of the capacity.
func TestScanRowVectors(t *testing.T) {
	if len(rowBodies) < 2 {
		t.Log("SKIPPED in part: no AVX2 on this CPU (or the purego tag), the tests run scanRow's portable body alone")
	}
	for _, row := range scanRowVectors {
		for _, lead := range []int{0, 31, rowLead, rowLead + 1} {
			for _, pad := range []bool{false, true} {
				checkScanRow(t, row, lead, pad)
			}
		}
	}
	for lead := rowLead; lead < rowLead+40; lead++ {
		checkScanRow(t, "1.5,-0.25,"+strings.Repeat("3", lead%7+1)+",4]", lead, false)
	}
	// The row's ']' from the last byte of the capacity to 70 bytes before
	// it: in the index's last 32-byte window, below it and in a full step.
	for k := range 70 {
		for _, pad := range []bool{false, true} {
			checkScanRow(t, "0.5,-1.25,3]"+strings.Repeat(" ", k), rowLead, pad)
		}
	}
	// The bench's rows, whole and within 32 bytes of the capacity.
	body := pamapRowsBody(2)
	row := string(body[bytes.Index(body, []byte("[["))+2:])
	checkScanRow(t, row, rowLead, true)
	checkScanRow(t, row, rowLead, false)
}

// FuzzScanRow holds the AVX2 body of scanRow to its portable body's
// specification on any bytes: the same floats, message and stop cursor,
// whatever the row holds, however far into the body it starts and whether
// or not capacity follows the NUL.
func FuzzScanRow(f *testing.F) {
	for _, row := range scanRowVectors {
		f.Add(row, uint8(rowLead), true)
	}
	body := pamapRowsBody(1)
	f.Add(string(body[bytes.Index(body, []byte("[["))+2:]), uint8(rowLead), false)
	scanFloatSeeds(10, func(tok string) { f.Add(tok+","+tok+"]", uint8(rowLead), true) })
	f.Fuzz(func(t *testing.T, row string, lead uint8, pad bool) {
		checkScanRow(t, row, int(lead%64), pad)
	})
}

// TestScanRowBodiesDecode decodes whole bodies under every body of
// scanRow — an empty row, a ragged one, rows the kernel hands off inside —
// and requires the portable body's batch and error message from each.
func TestScanRowBodiesDecode(t *testing.T) {
	bodies := []string{
		`{"site":3,"rows":[[]]}`, `{"site":3,"rows":[[1,2],[]]}`, `{"site":3,"rows":[[1,2],[3]]}`,
		`{"site":3,"rows":[[1.25,-0.5,1e3],[0.1, 2,01]]}`, `{"rows":[[1,2] ,[3 ,4]]}`,
		`{"site":3,"rows":[[` + strings.Repeat("0.125,", 99) + `1]]}`,
		string(pamapRowsBody(3)),
	}
	b, p := new(ingestBuf), newReplayBody(nil)
	for _, body := range bodies {
		var want batch
		var wantErr error
		for k, rb := range rowBodies {
			restore := rb.use()
			got, err := newDecode(b, p, []byte(body), false)
			restore()
			if k == 0 {
				want, wantErr = got, err
				want.rows = make([][]float64, len(got.rows))
				for r, row := range got.rows {
					want.rows[r] = slices.Clone(row)
				}
				continue
			}
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() || err == nil && !sameBatch(got, want) {
				t.Errorf("%.60q: %s body gives %v, %v; the portable body %v, %v", body, rb.name, got, err, want, wantErr)
			}
		}
	}
}
