package distmat_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	distmat "repro"
)

// updateGolden regenerates testdata/golden-*.ckpt from the current tree.
// The committed files were written by the commit BEFORE the shard engine
// was unified; regenerating them defeats the test, so do it only for a
// deliberate, versioned format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-*.ckpt from the current tree")

// goldenCase is one sharded persistable configuration: how to build it and
// how to feed it part k of its (deterministic) stream. Every feed goes
// through the assigner, so a restore also replays the assigner draws.
type goldenCase struct {
	name  string
	build func() (*distmat.Session, error)
	feed  func(s *distmat.Session, part int) error
}

func goldenCases() []goldenCase {
	// Three sites, four shards, batches small enough that each site's run
	// is one chunk: every batch advances the deal cursor by 3, so after the
	// three "before" batches it rests at 9 mod 4 = 1 — a zeroed or lost
	// cursor cannot pass.
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
	return []goldenCase{
		{"matrix-p2", func() (*distmat.Session, error) {
			return distmat.NewMatrixSession("p2", distmat.WithSites(3), distmat.WithEpsilon(0.2),
				distmat.WithDim(44), distmat.WithSeed(11), distmat.WithFastIngest(), distmat.WithShards(4))
		}, feedRows},
		{"hh-p2", func() (*distmat.Session, error) {
			return distmat.NewHHSession("p2", distmat.WithSites(3), distmat.WithEpsilon(0.05),
				distmat.WithSeed(11), distmat.WithShards(4))
		}, feedItems(items)},
		{"hh-exact", func() (*distmat.Session, error) {
			return distmat.NewHHSession("exact", distmat.WithSites(3), distmat.WithEpsilon(0.05),
				distmat.WithSeed(11), distmat.WithShards(4))
		}, feedItems(items)},
		{"qdigest", func() (*distmat.Session, error) {
			return distmat.NewQuantileSession(distmat.WithSites(3), distmat.WithEpsilon(0.05),
				distmat.WithBits(12), distmat.WithSeed(11), distmat.WithShards(4))
		}, feedItems(values)},
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
// snapshot envelopes: checkpoints written by the parent of the one-engine
// refactor (4-shard matrix p2, hh p2, hh exact, qdigest; mid-stream, deal
// cursor 1) must restore StateEqual to a twin built from scratch on the
// same stream, and stay on its trajectory afterwards. Renaming or moving a
// gob-registered snapshot type fails the decode; renaming a field silently
// zeroes it, which StateEqual then catches (the cursor and tallies are
// non-zero by construction).
func TestGoldenCheckpoints(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
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
			path := filepath.Join("testdata", "golden-"+gc.name+".ckpt")
			if *updateGolden {
				if err := os.WriteFile(path, saveBytes(t, twin), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := distmat.RestoreSession(bytes.NewReader(golden))
			if err != nil {
				t.Fatalf("restoring the parent-commit checkpoint: %v", err)
			}
			defer restored.Close()
			if got := restored.Shards(); got != 4 {
				t.Fatalf("restored Shards() = %d, want 4", got)
			}
			for _, state := range [][]byte{golden, saveBytes(t, restored)} {
				if eq, err := distmat.StateEqual(state, saveBytes(t, twin)); err != nil || !eq {
					t.Fatalf("golden checkpoint (or its re-save) is not StateEqual to the twin (err=%v)", err)
				}
			}
			for part := goldenBefore; part < goldenParts; part++ {
				if err := gc.feed(twin, part); err != nil {
					t.Fatal(err)
				}
				if err := gc.feed(restored, part); err != nil {
					t.Fatal(err)
				}
			}
			a, b := twin.Snapshot(), restored.Snapshot()
			a.Config, b.Config = distmat.Config{}, distmat.Config{}
			if !reflect.DeepEqual(a, b) {
				t.Error("answers diverge after continuing from the golden checkpoint")
			}
			if eq, err := distmat.StateEqual(saveBytes(t, twin), saveBytes(t, restored)); err != nil || !eq {
				t.Errorf("states diverge after continuing from the golden checkpoint (err=%v)", err)
			}
		})
	}
}
