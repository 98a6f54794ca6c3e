package overload

import (
	"strings"
	"testing"
	"time"

	"cottage/internal/obs"
)

func TestBreakerTransitionsAndLastOpened(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	b := NewBreaker(2, 100*time.Millisecond, clk)
	if b.transitions.Value() != 0 {
		t.Fatalf("fresh breaker transitions = %d, want 0", b.transitions.Value())
	}
	if !b.LastOpened().IsZero() {
		t.Fatal("fresh breaker has a LastOpened timestamp")
	}
	b.OnFailure()
	b.OnFailure() // closed → open
	if b.transitions.Value() != 1 {
		t.Fatalf("transitions after open = %d, want 1", b.transitions.Value())
	}
	opened := b.LastOpened()
	if !opened.Equal(clk.Now()) {
		t.Fatalf("LastOpened = %v, want %v", opened, clk.Now())
	}
	clk.Advance(150 * time.Millisecond)
	if !b.Allow() { // open → half-open
		t.Fatal("cooldown elapsed, probe must be allowed")
	}
	if b.transitions.Value() != 2 {
		t.Fatalf("transitions after half-open = %d, want 2", b.transitions.Value())
	}
	b.OnSuccess() // half-open → closed
	if b.transitions.Value() != 3 {
		t.Fatalf("transitions after close = %d, want 3", b.transitions.Value())
	}
	// LastOpened survives closure: the prober reads it after reviving.
	if !b.LastOpened().Equal(opened) {
		t.Fatal("LastOpened changed on close")
	}
	b.OnSuccess() // closed → closed: not a transition
	if b.transitions.Value() != 3 {
		t.Fatalf("closed→closed counted as transition: %d", b.transitions.Value())
	}
}

func TestLimiterRegisterExposesCounters(t *testing.T) {
	l := NewLimiter(2, 0, nil)
	reg := obs.NewRegistry()
	l.Register(reg, obs.L("isn", "0"))
	if err := l.Acquire(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(0); err == nil { // queue depth 0: shed
		t.Fatal("third acquire should shed")
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`cottage_limiter_admitted_total{isn="0"} 2`,
		`cottage_limiter_shed_total{isn="0"} 1`,
		`cottage_limiter_inflight{isn="0"} 2`,
		`cottage_limiter_queued{isn="0"} 0`,
		`cottage_limiter_limit{isn="0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
	// The accessor and the registry read the same atomics.
	if st := l.Stats(); st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("Stats() = %+v, want Admitted 2 Shed 1", st)
	}
}

func TestBreakerRegisterExposesState(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	b := NewBreaker(1, time.Second, clk)
	reg := obs.NewRegistry()
	b.Register(reg, obs.L("isn", "3"))
	b.OnFailure()
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`cottage_breaker_transitions_total{isn="3"} 1`,
		`cottage_breaker_state{isn="3"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
}
