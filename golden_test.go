package distmat_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	distmat "repro"
	"repro/internal/matrix"
)

// goldenCase is one sharded persistable configuration: how to build it,
// how to feed it part k of its (deterministic) stream, and how to hold a
// session fed the first parts to the ε bound of those parts' exact
// answer. Every feed goes through the assigner, so a restore also replays
// the assigner draws.
type goldenCase struct {
	name  string
	build func() (*distmat.Session, error)
	feed  func(s *distmat.Session, part int) error
	check func(t *testing.T, s *distmat.Session, parts int)
}

func goldenCases() []goldenCase {
	// Three sites, four shards asked for: the checkpoints were written when
	// every shard ran all three sites and blocks were dealt round-robin, so
	// they carry four shards; a tracker built today runs three, one site
	// each.
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(1800))
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(12_000))
	values := make([]distmat.WeightedItem, len(items))
	for i, it := range items {
		values[i] = distmat.WeightedItem{Elem: it.Elem % (1 << 12), Weight: it.Weight}
	}
	feedRows := func(s *distmat.Session, part int) error {
		return s.ProcessRows(rows[part*300 : (part+1)*300])
	}
	feedItems := func(src []distmat.WeightedItem) func(*distmat.Session, int) error {
		return func(s *distmat.Session, part int) error {
			return s.ProcessItems(src[part*2000 : (part+1)*2000])
		}
	}
	checkRows := func(t *testing.T, s *distmat.Session, parts int) {
		t.Helper()
		exact := matrix.NewSym(44)
		for _, row := range rows[:parts*300] {
			exact.AddOuter(1, row)
		}
		errRatio, err := distmat.CovarianceError(exact, s.Snapshot().Gram)
		if eps := s.Config().Epsilon; err != nil || errRatio > eps {
			t.Errorf("covariance error %v of ‖A‖²_F after %d parts, want ≤ ε = %v (err=%v)", errRatio, parts, eps, err)
		}
	}
	checkHH := func(t *testing.T, s *distmat.Session, parts int) {
		t.Helper()
		exact, w := map[uint64]float64{}, 0.0
		for _, it := range items[:parts*2000] {
			exact[it.Elem] += it.Weight
			w += it.Weight
		}
		eps := s.Config().Epsilon
		for e, fe := range exact {
			if got := s.HH().Estimate(e); math.Abs(got-fe) > eps*w {
				t.Fatalf("element %d: estimate %v, exact %v, beyond εW = %v", e, got, fe, eps*w)
			}
		}
	}
	checkQuantiles := func(t *testing.T, s *distmat.Session, parts int) {
		t.Helper()
		prefix := values[:parts*2000]
		eps := s.Config().Epsilon
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			v, err := s.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			var below, upTo, w float64
			for _, it := range prefix {
				w += it.Weight
				if it.Elem < v {
					below += it.Weight
				}
				if it.Elem <= v {
					upTo += it.Weight
				}
			}
			if below > (phi+eps)*w || upTo < (phi-eps)*w {
				t.Errorf("φ = %v: value %d holds ranks [%v, %v], want one within εW = %v of %v", phi, v, below, upTo, eps*w, phi*w)
			}
		}
	}
	return []goldenCase{
		{"matrix-p2", func() (*distmat.Session, error) {
			return distmat.NewMatrixSession("p2", distmat.WithSites(3), distmat.WithEpsilon(0.2),
				distmat.WithDim(44), distmat.WithSeed(11), distmat.WithFastIngest(), distmat.WithShards(4))
		}, feedRows, checkRows},
		{"hh-p2", func() (*distmat.Session, error) {
			return distmat.NewHHSession("p2", distmat.WithSites(3), distmat.WithEpsilon(0.05),
				distmat.WithSeed(11), distmat.WithShards(4))
		}, feedItems(items), checkHH},
		{"hh-exact", func() (*distmat.Session, error) {
			return distmat.NewHHSession("exact", distmat.WithSites(3), distmat.WithEpsilon(0.05),
				distmat.WithSeed(11), distmat.WithShards(4))
		}, feedItems(items), checkHH},
		{"qdigest", func() (*distmat.Session, error) {
			return distmat.NewQuantileSession(distmat.WithSites(3), distmat.WithEpsilon(0.05),
				distmat.WithBits(12), distmat.WithSeed(11), distmat.WithShards(4))
		}, feedItems(values), checkQuantiles},
	}
}

// goldenParts splits each stream: parts [0, goldenBefore) precede the
// checkpoint, parts [goldenBefore, goldenParts) follow it.
const (
	goldenBefore = 3
	goldenParts  = 6
)

func saveBytes(t *testing.T, s *distmat.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCheckpoints is the on-disk compatibility proof for the sharded
// snapshot envelopes. The committed checkpoints (4-shard matrix p2, hh p2,
// hh exact, qdigest, saved mid-stream) were written when every shard ran
// all m sites and blocks were dealt round-robin; they must never be
// regenerated. Each must restore with its four shards and re-save
// StateEqual to itself; fed the three later parts, the restored session
// must answer within ε of the exact stream, and two restores fed the same
// parts must stay StateEqual. Renaming or moving a gob-registered snapshot
// type fails the decode; renaming a field silently zeroes it, which the
// re-save comparison catches (the tallies are non-zero by construction).
//
// The checkpoint of a session built today takes the golden's other role:
// save, restore and continue must equal the uninterrupted twin.
func TestGoldenCheckpoints(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "golden-"+gc.name+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			var restores [2]*distmat.Session
			for i := range restores {
				if restores[i], err = distmat.RestoreSession(bytes.NewReader(golden)); err != nil {
					t.Fatalf("restoring the round-robin checkpoint: %v", err)
				}
				defer restores[i].Close()
			}
			restored := restores[0]
			if got := restored.Shards(); got != 4 {
				t.Fatalf("restored Shards() = %d, want 4", got)
			}
			if eq, err := distmat.StateEqual(golden, saveBytes(t, restored)); err != nil || !eq {
				t.Fatalf("the golden checkpoint's re-save is not StateEqual to it (err=%v)", err)
			}
			gc.check(t, restored, goldenBefore)
			for part := goldenBefore; part < goldenParts; part++ {
				for _, s := range restores {
					if err := gc.feed(s, part); err != nil {
						t.Fatal(err)
					}
				}
			}
			gc.check(t, restored, goldenParts)
			if eq, err := distmat.StateEqual(saveBytes(t, restores[0]), saveBytes(t, restores[1])); err != nil || !eq {
				t.Errorf("two restores of the golden checkpoint diverge on the same parts (err=%v)", err)
			}

			// Today's layout: a save mid-stream restores onto the
			// trajectory of the session that was never saved.
			twin, err := gc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			for part := 0; part < goldenBefore; part++ {
				if err := gc.feed(twin, part); err != nil {
					t.Fatal(err)
				}
			}
			saved := saveBytes(t, twin)
			resumed, err := distmat.RestoreSession(bytes.NewReader(saved))
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if eq, err := distmat.StateEqual(saved, saveBytes(t, resumed)); err != nil || !eq {
				t.Fatalf("a fresh checkpoint's re-save is not StateEqual to it (err=%v)", err)
			}
			for part := goldenBefore; part < goldenParts; part++ {
				if err := gc.feed(twin, part); err != nil {
					t.Fatal(err)
				}
				if err := gc.feed(resumed, part); err != nil {
					t.Fatal(err)
				}
			}
			gc.check(t, resumed, goldenParts)
			a, b := twin.Snapshot(), resumed.Snapshot()
			a.Config, b.Config = distmat.Config{}, distmat.Config{}
			if !reflect.DeepEqual(a, b) {
				t.Error("answers diverge after continuing from a fresh checkpoint")
			}
			if eq, err := distmat.StateEqual(saveBytes(t, twin), saveBytes(t, resumed)); err != nil || !eq {
				t.Errorf("states diverge after continuing from a fresh checkpoint (err=%v)", err)
			}
		})
	}
}
