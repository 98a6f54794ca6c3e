package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("Counter create-or-get returned a different instance")
	}
	depth := 3.0
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	depth--
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\ndepth 2\n") {
		t.Fatalf("scrape does not read the gauge at scrape time:\n%s", out.String())
	}
}

func TestRegisterAdoptsExisting(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	got := r.Register("adopted_total", "adopted", &c).(*Counter)
	if got != &c {
		t.Fatal("Register did not adopt the provided collector")
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "adopted_total 7") {
		t.Fatalf("scrape missing adopted counter:\n%s", out.String())
	}
}

// TestHistogramQuantiles: each value lands in the first bucket whose
// upper bound is at or above it, so the cumulative counts a scraper
// reads place every quantile in its bucket; values past the last bound
// land in +Inf, and the count, sum and range are exact.
func TestHistogramQuantiles(t *testing.T) {
	bounds := make([]float64, 100) // 1..100
	for i := range bounds {
		bounds[i] = float64(i + 1)
	}
	h := NewHistogram(bounds)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) - 0.5) // 0.5, 1.5, ... 99.5
	}
	h.Observe(100) // on a bound: that bucket, not the next
	s := h.Snapshot()
	if s.Count != 101 || s.Sum != 5100 {
		t.Fatalf("count = %d, sum = %g, want 101, 5100", s.Count, s.Sum)
	}
	for i, c := range s.Counts {
		want := uint64(1)
		switch i {
		case 99:
			want = 2
		case 100:
			want = 0
		}
		if c != want {
			t.Fatalf("bucket %d holds %d, want %d", i, c, want)
		}
	}
	// The bucket where the cumulative count first reaches q·Count holds
	// the q-quantile.
	for _, c := range []struct{ q, le float64 }{{0.50, 51}, {0.95, 96}, {0.99, 100}} {
		cum := uint64(0)
		for i, n := range s.Counts {
			if cum += n; float64(cum) >= c.q*float64(s.Count) {
				if s.Bounds[i] != c.le {
					t.Errorf("p%g in the bucket up to %g, want %g", c.q*100, s.Bounds[i], c.le)
				}
				break
			}
		}
	}
	h.Observe(1e9)
	if s := h.Snapshot(); s.Counts[100] != 1 {
		t.Fatalf("+Inf bucket holds %d, want 1", s.Counts[100])
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(LatencyBucketsMS())
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot %+v, want zero count and sum", s)
	}
	for i, c := range s.Counts {
		if c != 0 {
			t.Fatalf("empty bucket %d holds %d", i, c)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while
// a reader snapshots it — the race detector is the real assertion, plus
// the final totals must add up exactly.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBucketsMS())
	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count > writers*perWriter {
				t.Errorf("count %d beyond what was written", s.Count)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Float64() * 100)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-readerDone

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	bucketSum := uint64(0)
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("cottage_requests_total", "Total requests.", L("kind", "search")).Add(3)
	r.GaugeFunc("cottage_inflight", "In-flight requests.", func() float64 { return 2 })
	h := r.Histogram("cottage_latency_ms", "Latency.", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(500)

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE cottage_requests_total counter",
		`cottage_requests_total{kind="search"} 3`,
		"# TYPE cottage_inflight gauge",
		"cottage_inflight 2",
		"# TYPE cottage_latency_ms histogram",
		`cottage_latency_ms_bucket{le="1"} 1`,
		`cottage_latency_ms_bucket{le="10"} 2`,
		`cottage_latency_ms_bucket{le="100"} 2`,
		`cottage_latency_ms_bucket{le="+Inf"} 3`,
		"cottage_latency_ms_sum 505.5",
		"cottage_latency_ms_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
	// Cumulative bucket counts must be monotone and families contiguous.
	if strings.Count(text, "# TYPE cottage_latency_ms histogram") != 1 {
		t.Error("histogram family emitted more than once")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", "", L("q", `a"b\c`)).Inc()
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `weird{q="a\"b\\c"} 1`) {
		t.Fatalf("bad label escaping:\n%s", out.String())
	}
}
