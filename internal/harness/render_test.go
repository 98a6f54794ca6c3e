package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestBar(t *testing.T) {
	if Bar(5, 10, 10) != "#####" {
		t.Errorf("Bar(5,10,10) = %q", Bar(5, 10, 10))
	}
	if Bar(10, 10, 10) != "##########" {
		t.Error("full bar wrong")
	}
	if Bar(100, 10, 10) != "##########" {
		t.Error("overflow should clamp")
	}
	if Bar(0.0001, 10, 10) != "#" {
		t.Error("tiny positive value should be visible")
	}
	if Bar(0, 10, 10) != "" || Bar(5, 0, 10) != "" || Bar(5, 10, 0) != "" {
		t.Error("degenerate inputs should be empty")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline length %d", utf8.RuneCountInString(s))
	}
	// First rune must be the lowest level, last the highest.
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("sparkline extremes wrong: %q", s)
	}
	// Constant series renders at one level without panicking.
	flat := Sparkline([]float64{3, 3, 3})
	if utf8.RuneCountInString(flat) != 3 {
		t.Error("flat sparkline length wrong")
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
}

func TestRenderBars(t *testing.T) {
	var buf bytes.Buffer
	RenderBars(&buf, "title", "W", []string{"a", "bb"}, []float64{1, 2})
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "bb") {
		t.Errorf("missing content: %q", out)
	}
	// The larger value gets the longer bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Errorf("bar lengths not proportional:\n%s", out)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched labels/values should panic")
			}
		}()
		RenderBars(&buf, "t", "", []string{"a"}, []float64{1, 2})
	}()
}

func TestExportCSV(t *testing.T) {
	s := testSetup(t)
	dir := t.TempDir()
	if err := ExportCSVFromSetup(s, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 2 traces x 5 policies.
	if len(entries) != 10 {
		t.Fatalf("got %d CSV files", len(entries))
	}
	data, err := os.ReadFile(dir + "/wikipedia-cottage.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "query_id,arrival_ms,latency_ms,p_at_k,active_isns,docs_searched,dropped_isns,budget_ms" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if len(lines) != s.Config.EvalQueries+1 {
		t.Fatalf("csv has %d rows, want %d", len(lines)-1, s.Config.EvalQueries)
	}
}
