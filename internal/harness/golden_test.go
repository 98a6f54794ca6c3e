package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestExtrasGolden pins the quick-scale output of the extras whose
// fault paths run through the twin's fault injector and the integrity
// plane — crashed nodes (availability, replication), a limping
// straggler (hedging, anatomy), and rot, quarantine and repair
// (integrity) — byte for byte. The digests were computed before the
// twin's fault state moved into one switchboard.
func TestExtrasGolden(t *testing.T) {
	s := testSetup(t)
	want := map[string]string{
		"availability": "1d4943cc99910bb2",
		"replication":  "4446739ab362e9e5",
		"hedging":      "9e234280932134a3",
		"anatomy":      "26ca3904e6278083",
		"integrity":    "b854693cf5e27d32",
	}
	for _, e := range Extras() {
		w, ok := want[e.ID]
		if !ok {
			continue
		}
		var buf bytes.Buffer
		if err := e.Run(s, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:])[:16]; got != w {
			t.Errorf("%s: output digest %s, want %s", e.ID, got, w)
		}
	}
}
