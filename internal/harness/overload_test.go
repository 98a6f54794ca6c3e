package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestOverloadSweepSmoke runs the overload extra on the quick setup and
// asserts the acceptance shape of bounded admission queues: at 4x
// offered load the cluster sheds (exhaustive dispatches hit full
// queues), the p99 of *admitted* queries stays within 2x of the
// nominal-load p99 (shedding holds the served tail instead of queueing
// without bound), and Cottage's mean budget inflates with load because
// the Eq. 2 equivalent-latency correction folds the live backlog into
// every prediction.
func TestOverloadSweepSmoke(t *testing.T) {
	s := testSetup(t)
	points, bound := RunOverloadSweep(s.Engine, s.WikiEval)
	if bound <= 0 {
		t.Fatalf("derived queue bound = %v, want positive", bound)
	}
	byKey := make(map[string]OverloadPoint, len(points))
	for _, pt := range points {
		byKey[pt.Policy+"@"+fmtFactor(pt.Factor)] = pt
	}

	exh1, exh4 := byKey["exhaustive@1"], byKey["exhaustive@4"]
	if exh4.ShedDisp <= 0 {
		t.Error("exhaustive at 4x load should shed some dispatches")
	}
	if exh1.ShedDisp > exh4.ShedDisp {
		t.Errorf("shed rate should grow with load: 1x %v vs 4x %v", exh1.ShedDisp, exh4.ShedDisp)
	}
	if exh1.AdmitP99 <= 0 || exh4.AdmitP99 <= 0 {
		t.Fatalf("admitted p99 missing: 1x %v, 4x %v", exh1.AdmitP99, exh4.AdmitP99)
	}
	if f := exh4.AdmitP99 / exh1.AdmitP99; f > 2 {
		t.Errorf("admitted p99 inflated %vx at 4x load, want <= 2x (queue bound %v ms)", f, bound)
	}

	cot1, cot4 := byKey["cottage@1"], byKey["cottage@4"]
	if cot1.BudgetMS <= 0 || cot4.BudgetMS <= 0 {
		t.Fatalf("cottage budgets missing: 1x %v, 4x %v", cot1.BudgetMS, cot4.BudgetMS)
	}
	if cot4.BudgetMS <= cot1.BudgetMS {
		t.Errorf("Eq. 2 feedback should inflate the budget with load: 1x %v vs 4x %v",
			cot1.BudgetMS, cot4.BudgetMS)
	}

	// The rendered experiment (what `cottage-bench -experiment overload`
	// prints) must produce the table.
	var buf bytes.Buffer
	exp, ok := ByID("overload")
	if !ok {
		t.Fatal("overload experiment not registered")
	}
	if err := exp.Run(s, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"queue bound", "exhaustive", "cottage", "budget inflation"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("overload output missing %q:\n%s", want, buf.String())
		}
	}
}

func fmtFactor(f float64) string {
	switch f {
	case 1:
		return "1"
	case 2:
		return "2"
	case 3:
		return "3"
	case 4:
		return "4"
	}
	return "?"
}
