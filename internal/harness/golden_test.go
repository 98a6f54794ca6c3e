package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// checkDigests runs each experiment of exps that want names and compares
// the first 16 hex digits of its output's SHA-256 with the pinned value.
func checkDigests(t *testing.T, exps []Experiment, want map[string]string) {
	t.Helper()
	s := testSetup(t)
	seen := 0
	for _, e := range exps {
		w, ok := want[e.ID]
		if !ok {
			continue
		}
		seen++
		var buf bytes.Buffer
		if err := e.Run(s, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:])[:16]; got != w {
			t.Errorf("%s: output digest %s, want %s", e.ID, got, w)
		}
	}
	if seen != len(want) {
		t.Fatalf("ran %d of the %d pinned experiments", seen, len(want))
	}
}

// TestExtrasGolden pins the quick-scale output of the extras whose
// fault paths run through the twin's fault injector and the integrity
// plane — crashed nodes (availability, replication), a limping
// straggler (hedging, anatomy), and rot, quarantine and repair
// (integrity) — and of the bounded-queue and capacity-planning sweeps
// (overload, autoscale), byte for byte. The first five digests were
// computed before the twin's fault state moved into one switchboard,
// the last two before the overload bound and the autoscale initial
// replica count became constants. The integrity digest was re-pinned
// when shard files moved to format 7: its block (1) prints the encoded
// size and how each seeded bit flip was caught.
func TestExtrasGolden(t *testing.T) {
	checkDigests(t, Extras(), map[string]string{
		"availability": "1d4943cc99910bb2",
		"replication":  "4446739ab362e9e5",
		"hedging":      "9e234280932134a3",
		"anatomy":      "26ca3904e6278083",
		"integrity":    "d60b22323a6bba4e",
		"overload":     "3accb9e13c77834a",
		"autoscale":    "7d8ad1e4d92d0a7d",
	})
}

// TestFiguresGolden pins the quick-scale output of Fig. 6 (score
// histogram and fitted Gamma) and Fig. 10 (overall latency) byte for
// byte. The digests were computed before Fig. 6's score maximum and the
// engine summary's unread fields changed.
func TestFiguresGolden(t *testing.T) {
	checkDigests(t, All(), map[string]string{
		"fig6":  "ed494d25e6572e9d",
		"fig10": "bb523ddcf59458c5",
	})
}
