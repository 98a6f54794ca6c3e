package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The trace parser's allocation rule. Per input byte: the string its
// terms are cut from, and at worst a string header (16 B) per 4-byte
// empty term or a Query (40 B) per 20-byte record.
const (
	traceAllocPerByte = 6
	traceAllocSlack   = 64 << 10
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

// FuzzTraceRoundTrip hardens Parse against arbitrary bytes: it must
// never panic, one Parse may allocate at most traceAllocPerByte bytes per
// input byte plus traceAllocSlack, and anything it accepts must survive
// an Append→Parse round trip unchanged (canonicalization would silently
// alter replays). The frozen files under testdata/fuzz are format-1
// (gob) traces, which now stop at the format check.
func FuzzTraceRoundTrip(f *testing.F) {
	valid := Append(nil, fuzzTrace())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:3])
	corrupted := bytes.Clone(valid)
	for i := 0; i < len(corrupted); i += 7 {
		corrupted[i] ^= 0x55
	}
	f.Add(corrupted)
	// Well-formed files carrying exactly the traces Parse's validation
	// exists to reject.
	f.Add(Append(nil, []Query{{Terms: []string{"x"}, ArrivalMS: -4}}))
	f.Add(Append(nil, []Query{{Terms: nil, ArrivalMS: 1}}))
	f.Add([]byte{})
	f.Add(Append(nil, []Query{
		{ID: 0, Terms: []string{"late"}, ArrivalMS: 50},
		{ID: 1, Terms: []string{"early"}, ArrivalMS: 10},
	}))
	f.Add(Append(nil, []Query{{Terms: make([]string, MaxTermsPerQuery+9), ArrivalMS: 0}}))
	f.Add(Append(nil, []Query{{Terms: []string{strings.Repeat("q", MaxTermLen+1)}, ArrivalMS: 0}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		qs, err := Parse(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(traceAllocPerByte*len(data)+traceAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
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
		again, err := Parse(Append(nil, qs))
		if err != nil {
			t.Fatalf("re-loading saved trace: %v", err)
		}
		if !reflect.DeepEqual(qs, again) {
			t.Fatal("trace changed across Save/Load round trip")
		}
	})
}
