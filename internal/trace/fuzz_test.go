package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fuzzTrace returns a small valid trace without needing a corpus: the
// round-trip property only cares about the wire shape.
func fuzzTrace() []Query {
	return []Query{
		{ID: 0, Terms: []string{"alpha"}, ArrivalMS: 0},
		{ID: 1, Terms: []string{"beta", "gamma"}, ArrivalMS: 12.5},
		{ID: 2, Terms: []string{"delta"}, ArrivalMS: 40},
	}
}

func mustSave(tb testing.TB, qs []Query) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, qs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceRoundTrip hardens Load against arbitrary bytes: it must
// never panic, and anything it accepts must survive a Save→Load round
// trip unchanged (canonicalization would silently alter replays).
func FuzzTraceRoundTrip(f *testing.F) {
	valid := mustSave(f, fuzzTrace())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:3])
	corrupted := bytes.Clone(valid)
	for i := 0; i < len(corrupted); i += 7 {
		corrupted[i] ^= 0x55
	}
	f.Add(corrupted)
	// Structurally valid gob frames carrying exactly the traces Load's
	// validation exists to reject.
	f.Add(mustSave(f, []Query{{Terms: []string{"x"}, ArrivalMS: -4}}))
	f.Add(mustSave(f, []Query{{Terms: nil, ArrivalMS: 1}}))
	f.Add([]byte{})
	f.Add(mustSave(f, []Query{
		{ID: 0, Terms: []string{"late"}, ArrivalMS: 50},
		{ID: 1, Terms: []string{"early"}, ArrivalMS: 10},
	}))
	f.Add(mustSave(f, []Query{{Terms: make([]string, MaxTermsPerQuery+9), ArrivalMS: 0}}))
	f.Add(mustSave(f, []Query{{Terms: []string{strings.Repeat("q", MaxTermLen+1)}, ArrivalMS: 0}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		qs, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted traces must obey the documented invariants...
		prev := 0.0
		for i, q := range qs {
			if q.ArrivalMS < prev {
				t.Fatalf("accepted trace has out-of-order arrival at %d", i)
			}
			if len(q.Terms) == 0 || len(q.Terms) > MaxTermsPerQuery {
				t.Fatalf("accepted trace has %d terms at %d", len(q.Terms), i)
			}
			prev = q.ArrivalMS
		}
		// ...and round-trip exactly.
		var buf bytes.Buffer
		if err := Save(&buf, qs); err != nil {
			t.Fatalf("re-saving accepted trace: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-loading saved trace: %v", err)
		}
		if !reflect.DeepEqual(qs, again) {
			t.Fatal("trace changed across Save/Load round trip")
		}
	})
}
