package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestIntegritySmoke runs the full integrity study end to end. The
// load-time detection ladder, the zero-corrupted-postings-served
// invariant, the scrub localization count, the no-lost-query invariant
// and the P@10-held-under-repair bound are all enforced inside
// IntegritySweep itself — it returns an error the moment any of them
// breaks — so the smoke only has to run it and sanity-check the report.
// `make check` runs it with and without -race.
func TestIntegritySmoke(t *testing.T) {
	s := testSetup(t)
	var buf bytes.Buffer
	if err := IntegritySweep(s, &buf); err != nil {
		t.Fatalf("integrity sweep: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "corrupted postings served 0") {
		t.Errorf("query-gate invariant line missing:\n%s", out)
	}
	for _, part := range []string{"(1) load-time detection", "(2) query-time gate", "(3) twin quarantine/repair grid"} {
		if !strings.Contains(out, part) {
			t.Errorf("report missing %q:\n%s", part, out)
		}
	}
	if _, ok := ByID("integrity"); !ok {
		t.Error("integrity experiment not registered")
	}
}

// TestIntegrityDeterministic pins GOMAXPROCS-independence: the entire
// report — detection ladder, gate counts, the whole twin grid — is
// byte-identical whether the runtime gets one P or many.
func TestIntegrityDeterministic(t *testing.T) {
	s := testSetup(t)
	run := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var buf bytes.Buffer
		if err := IntegritySweep(s, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("output differs across GOMAXPROCS:\n--- procs=1 ---\n%s\n--- procs=8 ---\n%s", a, b)
	}
}
