package overload

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// acquireAsync starts an Acquire in a goroutine and returns a channel
// carrying its result. A short handshake loop in callers (waiting for
// Pending to rise) makes enqueue order deterministic.
func acquireAsync(l *Limiter, maxWait time.Duration) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- l.Acquire(maxWait) }()
	return ch
}

func waitPending(t *testing.T, l *Limiter, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for l.Pending() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Pending() = %d, want %d", l.Pending(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLimiterAdmitsUpToLimit(t *testing.T) {
	l := NewLimiter(2, 4, nil)
	if err := l.Acquire(0); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if err := l.Acquire(0); err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	if got := l.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	l.Release()
	l.Release()
	if got := l.Pending(); got != 0 {
		t.Fatalf("Pending() after release = %d, want 0", got)
	}
}

func TestLimiterShedsWhenQueueFull(t *testing.T) {
	l := NewLimiter(1, 1, nil)
	if err := l.Acquire(0); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	queued := acquireAsync(l, 0)
	waitPending(t, l, 2)
	// Slot busy, queue full: immediate shed.
	if err := l.Acquire(0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Acquire with full queue = %v, want ErrOverloaded", err)
	}
	l.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued Acquire: %v", err)
	}
	l.Release()
	st := l.Stats()
	if st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 2 admitted, 1 shed", st)
	}
}

func TestLimiterDeadlineShedAtGrant(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	l := NewLimiter(1, 4, clk)
	if err := l.Acquire(0); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Two waiters: one with a 10ms budget, one without a deadline.
	tight := acquireAsync(l, 10*time.Millisecond)
	waitPending(t, l, 2)
	loose := acquireAsync(l, 0)
	waitPending(t, l, 3)

	// By the time a slot frees, the tight waiter's budget is gone: it
	// must be shed and the slot must go to the loose waiter.
	clk.Advance(50 * time.Millisecond)
	l.Release()
	if err := <-tight; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired waiter = %v, want ErrOverloaded", err)
	}
	if err := <-loose; err != nil {
		t.Fatalf("no-deadline waiter: %v", err)
	}
	l.Release()
}

func TestLimiterDeadlineStillFreshIsServed(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	l := NewLimiter(1, 4, clk)
	if err := l.Acquire(0); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	w := acquireAsync(l, 100*time.Millisecond)
	waitPending(t, l, 2)
	clk.Advance(50 * time.Millisecond) // within budget
	l.Release()
	if err := <-w; err != nil {
		t.Fatalf("fresh waiter = %v, want admission", err)
	}
	l.Release()
}

func TestLimiterCloseShedsQueueKeepsInflight(t *testing.T) {
	l := NewLimiter(1, 4, nil)
	if err := l.Acquire(0); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	queued := acquireAsync(l, 0)
	waitPending(t, l, 2)
	l.Close()
	if err := <-queued; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued waiter after Close = %v, want ErrOverloaded", err)
	}
	if err := l.Acquire(0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Acquire after Close = %v, want ErrOverloaded", err)
	}
	// The in-flight request still completes normally.
	l.Release()
	if got := l.Stats().Inflight; got != 0 {
		t.Fatalf("Inflight after Release = %d, want 0", got)
	}
}

func TestLimiterAIMD(t *testing.T) {
	l := NewLimiter(4, 0, nil)
	l.EnableAIMD(8)

	// Multiplicative decrease: with no queue, an overflow Acquire sheds
	// and halves the cap.
	for i := 0; i < 4; i++ {
		if err := l.Acquire(0); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
	}
	if err := l.Acquire(0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow Acquire = %v, want ErrOverloaded", err)
	}
	if got := l.Stats().Limit; got != 2 {
		t.Fatalf("limit after decrease = %d, want 2", got)
	}
	// Additive increase: each full window of successful completions adds
	// one slot. Draining the 4 in-flight requests at limit 2 yields one
	// full window (limit 2→3) with 2 successes carried toward the next.
	for i := 0; i < 4; i++ {
		l.Release()
	}
	if got := l.Stats().Limit; got != 3 {
		t.Fatalf("limit after drain = %d, want 3", got)
	}
	// One more completion finishes the window of 3: limit 3→4.
	if err := l.Acquire(0); err != nil {
		t.Fatalf("AI Acquire: %v", err)
	}
	l.Release()
	if got := l.Stats().Limit; got != 4 {
		t.Fatalf("limit after additive increase = %d, want 4", got)
	}
}

func TestLimiterConcurrentStress(t *testing.T) {
	l := NewLimiter(4, 8, nil)
	const goroutines = 16
	const perG = 50
	var admitted, shed int64
	var mu sync.Mutex
	var inflight, maxInflight int

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := l.Acquire(time.Second)
				if errors.Is(err, ErrOverloaded) {
					mu.Lock()
					shed++
					mu.Unlock()
					continue
				}
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				mu.Lock()
				admitted++
				inflight++
				if inflight > maxInflight {
					maxInflight = inflight
				}
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				inflight--
				mu.Unlock()
				l.Release()
			}
		}()
	}
	wg.Wait()

	if admitted+shed != goroutines*perG {
		t.Fatalf("admitted %d + shed %d != %d issued", admitted, shed, goroutines*perG)
	}
	if maxInflight > 4 {
		t.Fatalf("observed %d concurrent admissions, cap is 4", maxInflight)
	}
	st := l.Stats()
	if st.Admitted != uint64(admitted) || st.Shed != uint64(shed) {
		t.Fatalf("limiter stats %+v disagree with client counts (%d admitted, %d shed)",
			st, admitted, shed)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("limiter not drained: %+v", st)
	}
}
