package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestNewIDNonZeroUnique(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %#x", id)
		}
		seen[id] = true
	}
}

func TestTraceBuilderNesting(t *testing.T) {
	b := NewTraceBuilder(1000)
	root := b.StartSpan("query", 0, 0)
	predict := b.StartSpan("predict", root.ID(), 10)
	predict.End(50)
	budget := b.StartSpan("budget", root.ID(), 50)
	budget.SetDecision(&DecisionRecord{BudgetMS: 12.5, BudgetISN: 3})
	budget.End(60)
	root.End(200)

	tr := b.Finish()
	if tr.ID != b.TraceID() {
		t.Fatalf("trace ID mismatch: %d vs %d", tr.ID, b.TraceID())
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	r := tr.Root()
	if r == nil || r.Name != "query" {
		t.Fatalf("root = %+v, want query span", r)
	}
	for _, name := range []string{"predict", "budget"} {
		s := tr.Find(name)
		if s == nil {
			t.Fatalf("missing span %q", name)
		}
		if s.Parent != r.ID {
			t.Errorf("%s.Parent = %d, want root %d", name, s.Parent, r.ID)
		}
		if s.StartUS < r.StartUS || s.StartUS+s.DurUS > r.StartUS+r.DurUS {
			t.Errorf("%s [%d,%d] not nested in root [%d,%d]",
				name, s.StartUS, s.StartUS+s.DurUS, r.StartUS, r.StartUS+r.DurUS)
		}
	}
	if d := tr.Find("budget").Decision; d == nil || d.BudgetISN != 3 {
		t.Fatalf("budget decision = %+v, want BudgetISN 3", tr.Find("budget").Decision)
	}
	// Spans sorted by start time.
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].StartUS < tr.Spans[i-1].StartUS {
			t.Fatal("spans not sorted by StartUS")
		}
	}
}

func TestNilBuilderSafe(t *testing.T) {
	var b *TraceBuilder
	if b.TraceID() != 0 {
		t.Fatal("nil builder TraceID != 0")
	}
	s := b.StartSpan("x", 0, 0)
	if s != nil {
		t.Fatal("nil builder StartSpan != nil")
	}
	// All ActiveSpan methods must no-op on nil.
	s.SetAttr("k", "v")
	s.SetISN(1)
	s.SetDecision(&DecisionRecord{})
	s.End(10)
	if s.ID() != 0 {
		t.Fatal("nil span ID != 0")
	}
	if sc := s.Context(); sc.Trace != 0 {
		t.Fatal("nil span context claims traced")
	}
	b.AddSpans([]Span{{Name: "orphan"}})
	if tr := b.Finish(); tr != nil {
		t.Fatal("nil builder Finish != nil")
	}
}

func TestAddSpansRehomes(t *testing.T) {
	b := NewTraceBuilder(0)
	b.AddSpans([]Span{{Trace: 999, ID: 42, Name: "serve"}})
	tr := b.Finish()
	if len(tr.Spans) != 1 || tr.Spans[0].Trace != b.TraceID() {
		t.Fatalf("grafted span not re-homed: %+v", tr.Spans)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Add(&Trace{ID: uint64(i)})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	recent := r.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("held %d traces, want 3", len(recent))
	}
	// Newest first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if recent[i].ID != want {
			t.Errorf("recent[%d] = %d, want %d", i, recent[i].ID, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].ID != 5 {
		t.Fatalf("Recent(2) = %v", got)
	}
}

func TestRecorderJSONL(t *testing.T) {
	r := NewRecorder(4)
	r.Add(&Trace{ID: 1, Spans: []Span{{Trace: 1, ID: 2, Name: "query", ISN: -1}}})
	r.Add(&Trace{ID: 3})
	var out strings.Builder
	if err := r.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	var ids []uint64
	for sc.Scan() {
		var tr Trace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		ids = append(ids, tr.ID)
	}
	// Oldest first.
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("JSONL ids = %v, want [1 3]", ids)
	}
}

func TestAddSpansCapDropsGrafts(t *testing.T) {
	tb := NewTraceBuilder(0)
	tb.max = 4
	root := tb.StartSpan("query", 0, 0)
	before := droppedSpans.Value()
	// Graft more serve-spans than the cap allows.
	for i := 0; i < 10; i++ {
		tb.AddSpans([]Span{{ID: NewID(), Parent: root.ID(), Name: "serve.search", StartUS: int64(i), DurUS: 1}})
	}
	// The builder's own spans are never capped: the root still lands.
	root.End(100)
	tr := tb.Finish()
	if got := len(tr.Spans); got != 5 { // 4 grafts + root
		t.Fatalf("kept %d spans, want 5", got)
	}
	if tr.DroppedSpans != 6 {
		t.Fatalf("DroppedSpans = %d, want 6", tr.DroppedSpans)
	}
	if got := droppedSpans.Value() - before; got != 6 {
		t.Fatalf("process-wide drop counter advanced %d, want 6", got)
	}
	if tr.Root() == nil {
		t.Fatal("root span was dropped")
	}
}

// TestDefaultMaxSpans: a new builder caps grafts at DefaultMaxSpans.
func TestDefaultMaxSpans(t *testing.T) {
	tb := NewTraceBuilder(0)
	spans := make([]Span, DefaultMaxSpans+5)
	for i := range spans {
		spans[i] = Span{ID: NewID(), Name: "serve.search"}
	}
	tb.AddSpans(spans)
	if tr := tb.Finish(); len(tr.Spans) != DefaultMaxSpans || tr.DroppedSpans != 5 {
		t.Fatalf("kept %d dropped %d, want %d/5", len(tr.Spans), tr.DroppedSpans, DefaultMaxSpans)
	}
}

// TestMarkTruncated: folding a truncated leg lists its ISN and marks that
// ISN's report with the leg's score bound, leaving the others alone; a
// nil record (no observer) ignores it.
func TestMarkTruncated(t *testing.T) {
	var none *DecisionRecord
	none.MarkTruncated(1, 2.5)
	d := &DecisionRecord{Reports: []ReportRecord{{ISN: 0}, {ISN: 3}}}
	d.MarkTruncated(3, 2.5)
	if len(d.Truncated) != 1 || d.Truncated[0] != 3 {
		t.Fatalf("Truncated = %v, want [3]", d.Truncated)
	}
	if r := d.Reports[1]; !r.Truncated || r.ScoreBound != 2.5 {
		t.Fatalf("ISN 3 report %+v, want truncated at bound 2.5", r)
	}
	if r := d.Reports[0]; r.Truncated || r.ScoreBound != 0 {
		t.Fatalf("ISN 0 report %+v touched", r)
	}
}
