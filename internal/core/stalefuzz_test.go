package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// FuzzGuaranteeP2Stale holds matrix P2's covariance guarantee (Theorem 4)
// when the F̂ broadcasts reach the sites late, out of order or never. m
// P2Site halves and one P2Coordinator are joined by staleLink, which hands
// every site message to the coordinator at once but holds each site's copy
// of each broadcast back a fuzzer-chosen number of steps, or drops it; a
// site keeps the largest F̂ it has received, as a runtime does. With floor
// set, each site also raises its F̂ before every step to its own squared
// mass so far, as cmd/distsite's wrapper does. §5.2 needs only that a
// site's F̂ be a lower bound, so staleness may cost messages but never
// error: at every 16th row, ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F.
//
// The fuzzer picks the stream (a base shape — lowRankRows or one of
// adversarialStreams' — whose directions and norms in [1, β] data
// rewrites), the site schedule (one site, round-robin or bursts), the
// block splits, one-row or whole-block ProcessBlock steps, the link's
// delays and the floor.
func FuzzGuaranteeP2Stale(f *testing.F) {
	tilt := []byte{200, 40, 17, 255, 3, 128, 90, 1, 66, 250, 129, 7}
	for shape := uint8(0); shape < 4; shape++ {
		for _, floor := range []bool{false, true} {
			f.Add([]byte{}, shape, uint16(1000), uint8(3), uint8(2), uint8(1), uint8(0), uint8(7), false, []byte{}, floor)
			f.Add(tilt, shape, uint16(65535), uint8(5), uint8(1), uint8(2), uint8(9), uint8(15), false, []byte{3, 7, 31, 0}, floor)
			f.Add(tilt, shape, uint16(40), uint8(4), uint8(0), uint8(1), uint8(0), uint8(0), true, []byte{255}, floor)
			f.Add([]byte{}, shape, uint16(9), uint8(1), uint8(3), uint8(0), uint8(4), uint8(23), false, []byte{255, 5, 0, 30, 12}, floor)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, betaB uint16, mB, epsB, sched, burst, split uint8, perRow bool, lag []byte, floor bool) {
		const n, d, every = 192, 44, 16
		m := 1 + int(mB%8)
		eps := []float64{0.05, 0.1, 0.2, 0.5}[epsB%4]
		rows := staleStream(data, shape, 1+float64(betaB), n, d)

		link := &staleLink{coord: NewP2Coordinator(m, eps, d), lag: lag}
		for i := 0; i < m; i++ {
			s, err := NewP2Site(i, m, eps, d, link)
			if err != nil {
				t.Fatal(err)
			}
			link.sites = append(link.sites, s)
		}
		siteOf := func(i int) int {
			switch sched % 3 {
			case 0:
				return 0
			case 1:
				return i % m
			default:
				return (i / (1 + int(burst%32))) % m
			}
		}
		blk := 1 + int(split%24)

		exact := matrix.NewSym(d)
		mass := make([]float64, m) // each site's squared mass before its current step
		checked := 0
		for start := 0; start < n; {
			site := siteOf(start)
			end := start + 1
			for end < n && end-start < blk && siteOf(end) == site {
				end++
			}
			link.advance()
			if s := link.sites[site]; floor && mass[site] > s.Estimate() {
				s.SetEstimate(mass[site])
			}
			var err error
			if perRow {
				for i := start; i < end && err == nil; i++ {
					err = link.sites[site].ProcessBlock(rows[i : i+1])
				}
			} else {
				err = link.sites[site].ProcessBlock(rows[start:end])
			}
			if err != nil {
				t.Fatalf("rows %d..%d at site %d: %v", start, end, site, err)
			}
			for _, row := range rows[start:end] {
				exact.AddOuter(1, row)
				mass[site] += matrix.NormSq(row)
			}
			start = end
			if start/every > checked || start == n {
				checked = start / every
				got, err := matrix.CovarianceDiffNorm(exact, link.coord.Gram())
				if err != nil {
					t.Fatal(err)
				}
				fro := exact.Trace()
				if got > eps*fro+1e-9*(1+fro) {
					t.Fatalf("after %d rows (m=%d, ε=%v, %d broadcasts, %d dropped or pending): ‖AᵀA − BᵀB‖₂ = %v > ε‖A‖²_F = %v",
						start, m, eps, link.sent, len(link.pending), got, eps*fro)
				}
			}
		}
	})
}

// staleLink joins the halves: a site message reaches the coordinator at
// once, and each due broadcast is queued per site for delivery lag steps
// later, or dropped. lag's bytes are read in turn, one per (broadcast,
// site): 255 drops that copy, any other b delays it b % 32 steps (a step
// is one ProcessRow run or one block); no lag delivers at the next step.
type staleLink struct {
	coord   *P2Coordinator
	sites   []*P2Site
	lag     []byte
	step    int
	sent    int // broadcasts issued
	pending []staleBroadcast
}

type staleBroadcast struct {
	site, due int
	fhat      float64
}

func (l *staleLink) Scalar(_ int, fj float64) {
	fhat, due := l.coord.Scalar(fj)
	if !due {
		return
	}
	for j := range l.sites {
		var b byte
		if len(l.lag) > 0 {
			b = l.lag[(l.sent*len(l.sites)+j)%len(l.lag)]
		}
		if b != 255 {
			l.pending = append(l.pending, staleBroadcast{site: j, due: l.step + int(b%32), fhat: fhat})
		}
	}
	l.sent++
}

func (l *staleLink) Row(_ int, row []float64) { l.coord.Row(row) }

// advance moves on one step and delivers what is due, in queue order —
// so a later, larger F̂ may land before an earlier one — keeping each
// site's max.
func (l *staleLink) advance() {
	l.step++
	kept := l.pending[:0]
	for _, b := range l.pending {
		if b.due > l.step {
			kept = append(kept, b)
			continue
		}
		if s := l.sites[b.site]; b.fhat > s.Estimate() {
			s.SetEstimate(b.fhat)
		}
	}
	l.pending = kept
}

// staleStream builds n rows of dimension d from a base shape — 0 is
// lowRankRows, 1–3 adversarialStreams' shapes in name order — rewritten by
// data, two bytes a row while they last: the first tilts the row toward an
// axis, the second sets its squared norm to 1 + (β−1)·(b/255)³. Rows past
// data keep their shape's norms relative to its smallest, capped at β.
func staleStream(data []byte, shape uint8, beta float64, n, d int) [][]float64 {
	var rows [][]float64
	if shape%4 == 0 {
		rows = lowRankRows(n)
	} else {
		streams := adversarialStreams(n, d, 2)
		names := make([]string, 0, len(streams))
		for name := range streams {
			names = append(names, name)
		}
		slices.Sort(names)
		rows, _ = streams[names[int(shape%4)-1]]()
	}
	wmin := math.Inf(1)
	for _, row := range rows {
		if w := matrix.NormSq(row); w > 0 && w < wmin {
			wmin = w
		}
	}
	out := make([][]float64, n)
	for i, base := range rows {
		row := append([]float64(nil), base...)
		w := math.Min(beta, math.Max(1, matrix.NormSq(row)/wmin))
		if 2*i+1 < len(data) {
			a, b := data[2*i], data[2*i+1]
			row[int(a)%d] += float64(int8(a)) / 16 * math.Sqrt(matrix.NormSq(row)/float64(d))
			u := float64(b) / 255
			w = 1 + (beta-1)*u*u*u
		}
		norm := math.Sqrt(matrix.NormSq(row))
		if norm == 0 {
			row[0], norm = 1, 1
		}
		for j := range row {
			row[j] *= math.Sqrt(w) / norm
		}
		out[i] = row
	}
	return out
}
