package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"cottage/internal/obs"
)

// clock is a settable virtual millisecond clock.
type clock struct{ ms float64 }

func (c *clock) now() float64 { return c.ms }

func newTestMonitor(c *clock) *Monitor {
	return New(Config{
		FastWindowMS: 1000,
		SlowWindowMS: 10_000,
		NowMS:        c.now,
	})
}

func TestBurnMath(t *testing.T) {
	c := &clock{}
	m := newTestMonitor(c)
	o := m.Objective("latency", 0.1) // 10% error budget

	// 8 good + 2 bad = 20% bad = burn 2 on both windows.
	for i := 0; i < 8; i++ {
		o.Observe(true)
	}
	o.Observe(false)
	o.Observe(false)
	fast, slow := o.Burn()
	if fast != 2 || slow != 2 {
		t.Fatalf("burn = %v/%v, want 2/2", fast, slow)
	}
	// 20% bad burns the budget faster than it accrues but below the page
	// multiplier: warn.
	if o.State() != StateWarn {
		t.Fatalf("state = %v, want warn", o.State())
	}
}

func TestPageRequiresBothWindows(t *testing.T) {
	c := &clock{}
	m := newTestMonitor(c)
	o := m.Objective("latency", 0.01)

	// Seed the slow window with a long healthy history, then blast the
	// fast window with failures: the slow window's burn stays low, so no
	// page — a short burst is not a sustained outage.
	for i := 0; i < 1000; i++ {
		c.ms += 9
		o.Observe(true)
	}
	for i := 0; i < 10; i++ {
		c.ms += 1
		o.Observe(false)
	}
	fast, slow := o.Burn()
	if fast < 8 {
		t.Fatalf("fast burn = %v, want >= 8 after the burst", fast)
	}
	if slow >= 8 {
		t.Fatalf("slow burn = %v, want < 8 with healthy history", slow)
	}
	if o.State() == StatePage {
		t.Fatal("paged on a fast-window burst alone")
	}

	// Sustained failures push the slow window over too: now it pages.
	for i := 0; i < 200; i++ {
		c.ms += 10
		o.Observe(false)
	}
	if o.State() != StatePage {
		t.Fatalf("state = %v, want page after sustained failures", o.State())
	}
	if o.Pages() != 1 {
		t.Fatalf("pages = %d, want 1", o.Pages())
	}
}

func TestWindowExpiry(t *testing.T) {
	c := &clock{}
	m := newTestMonitor(c)
	o := m.Objective("q", 0.1)
	o.Observe(false)
	if fast, _ := o.Burn(); fast == 0 {
		t.Fatal("bad event not counted")
	}
	// Advance past the fast window: the failure ages out of it.
	c.ms += 2000
	fast, slow := o.Burn()
	if fast != 0 {
		t.Fatalf("fast burn = %v after expiry, want 0", fast)
	}
	if slow == 0 {
		t.Fatal("slow window expired too early")
	}
	// And past the slow window too.
	c.ms += 20_000
	if _, slow = o.Burn(); slow != 0 {
		t.Fatalf("slow burn = %v after expiry, want 0", slow)
	}
}

func TestOnPageCallback(t *testing.T) {
	c := &clock{}
	m := newTestMonitor(c)
	var fired []string
	m.OnPage(func(o *Objective) { fired = append(fired, o.Name()) })
	o := m.Objective("latency", 0.01)
	for i := 0; i < 50; i++ {
		c.ms += 1
		o.Observe(false)
	}
	if len(fired) != 1 || fired[0] != "latency" {
		t.Fatalf("OnPage fired %v, want once for latency", fired)
	}
	// Staying in page must not re-fire; recovering and re-breaching must.
	for i := 0; i < 3000; i++ {
		c.ms += 10
		o.Observe(true)
	}
	if o.State() != StateOK {
		t.Fatalf("state = %v after recovery, want ok", o.State())
	}
	for i := 0; i < 5000; i++ {
		c.ms += 10
		o.Observe(false)
	}
	if len(fired) != 2 {
		t.Fatalf("OnPage fired %d times, want 2", len(fired))
	}
}

func TestObjectiveCreateOrGet(t *testing.T) {
	m := newTestMonitor(&clock{})
	a := m.Objective("x", 0.1)
	b := m.Objective("x", 0.5)
	if a != b {
		t.Fatal("Objective did not return the existing objective")
	}
	if len(m.Objectives()) != 1 {
		t.Fatalf("objectives = %d", len(m.Objectives()))
	}
	if m.Objective("zero", 0).target != 0.001 {
		t.Error("non-positive target not clamped")
	}
}

func TestMonitorRegister(t *testing.T) {
	c := &clock{}
	m := newTestMonitor(c)
	o := m.Objective("latency", 0.1)
	reg := obs.NewRegistry()
	m.Register(reg)
	o.Observe(false)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`cottage_slo_burn{objective="latency",window="fast"}`,
		`cottage_slo_burn{objective="latency",window="slow"}`,
		`cottage_slo_alert{objective="latency"}`,
		`cottage_slo_pages_total{objective="latency"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestSLOHandler(t *testing.T) {
	c := &clock{}
	m := newTestMonitor(c)
	m.Objective("latency", 0.1).Observe(true)
	rr := httptest.NewRecorder()
	Handler(m).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snaps []Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snaps); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Name != "latency" || snaps[0].State != "ok" {
		t.Fatalf("snapshot %+v", snaps)
	}
}

func TestQuerySLO(t *testing.T) {
	var q *QuerySLO
	q.ObserveQuery(1, false) // nil-safe

	c := &clock{}
	m := newTestMonitor(c)
	q = &QuerySLO{
		LatencyMS: 10,
		Latency:   m.Objective("latency", 0.1),
		Quality:   m.Objective("quality", 0.1),
	}
	q.ObserveQuery(5, false) // fast, intact
	q.ObserveQuery(50, true) // slow, degraded
	for _, tc := range []struct {
		o    *Objective
		want float64
	}{{q.Latency, 5}, {q.Quality, 5}} {
		if fast, _ := tc.o.Burn(); fast != tc.want {
			t.Errorf("%s fast burn = %v, want %v", tc.o.Name(), fast, tc.want)
		}
	}
}
