package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 10_000 {
		t.Fatalf("value = %d", c.Value())
	}
}

// within asserts got is within 1% of want (the bucketed histogram's accuracy
// contract).
func within(t *testing.T, label string, got, want time.Duration) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s = %v, want 0", label, got)
		}
		return
	}
	err := math.Abs(float64(got-want)) / float64(want)
	if err > 0.01 {
		t.Fatalf("%s = %v, want %v within 1%% (off by %.2f%%)", label, got, want, err*100)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// Count, sum, mean and max are tracked exactly; quantiles come from
	// bucket midpoints and must land within 1%.
	if m := h.Mean(); m != 50500*time.Microsecond {
		t.Fatalf("mean = %v", m)
	}
	if s := h.Sum(); s != 5050*time.Millisecond {
		t.Fatalf("sum = %v", s)
	}
	within(t, "p50", h.Quantile(0.5), 50*time.Millisecond)
	within(t, "p95", h.Quantile(0.95), 95*time.Millisecond)
	if max := h.Max(); max != 100*time.Millisecond {
		t.Fatalf("max = %v", max)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramQuantileAccuracyAcrossScales(t *testing.T) {
	// From nanoseconds to minutes: every reconstructed quantile must stay
	// within the 1% contract of the exact order statistic.
	for _, base := range []time.Duration{time.Nanosecond, time.Microsecond, time.Millisecond, time.Second, time.Minute} {
		var h Histogram
		samples := make([]time.Duration, 0, 1000)
		for i := 1; i <= 1000; i++ {
			d := base * time.Duration(i)
			h.Observe(d)
			samples = append(samples, d)
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
			idx := int(math.Ceil(q*1000)) - 1
			within(t, "quantile", h.Quantile(q), samples[idx])
		}
	}
}

func TestHistogramMemoryBounded(t *testing.T) {
	var h Histogram
	for i := 0; i < 200_000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 200_000 {
		t.Fatalf("count = %d", h.Count())
	}
	// The bucket array is capped by the index range, not the sample count.
	if n := len(h.buckets); n > 3776 {
		t.Fatalf("bucket array grew to %d entries", n)
	}
}

// TestHistogramMergeEqualsOneHistogramFedBoth: merging is bucket addition, so
// every quantile of the merged histogram is the quantile of one histogram
// that observed both streams — not merely within the accuracy contract of it.
func TestHistogramMergeEqualsOneHistogramFedBoth(t *testing.T) {
	var a, b, both Histogram
	for i := 1; i <= 700; i++ { // a short, fast stream
		d := time.Duration(i) * 3 * time.Microsecond
		a.Observe(d)
		both.Observe(d)
	}
	for i := 1; i <= 300; i++ { // a slow one that owns the tail and the max
		d := time.Duration(i) * 2 * time.Millisecond
		b.Observe(d)
		both.Observe(d)
	}
	a.Merge(&b)
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got, want := a.Quantile(q), both.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v, one histogram %v", q, got, want)
		}
	}
	if a.Count() != both.Count() || a.Sum() != both.Sum() || a.Max() != both.Max() {
		t.Errorf("merged count/sum/max = %d/%v/%v, want %d/%v/%v",
			a.Count(), a.Sum(), a.Max(), both.Count(), both.Sum(), both.Max())
	}
	if b.Count() != 300 {
		t.Errorf("Merge changed its argument: count %d", b.Count())
	}
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != both.Count() || a.Quantile(0.5) != both.Quantile(0.5) {
		t.Error("merging an empty histogram changed the receiver")
	}
}

func TestRegistryReuseAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(3)
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	r.Histogram("h").Observe(time.Millisecond)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0] != (NameValue{"a", 2}) || snap[1] != (NameValue{"b", 3}) {
		t.Fatalf("snapshot = %v", snap)
	}
	hists := r.Histograms()
	if len(hists) != 1 || hists[0].Name != "h" || hists[0].Hist.Count() != 1 {
		t.Fatalf("histograms = %v", hists)
	}
	if !strings.Contains(r.String(), "a") {
		t.Fatal("String missing counter")
	}
	r.ResetAll()
	if r.Counter("a").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Fatal("ResetAll incomplete")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared").Value() != 4000 {
		t.Fatalf("shared = %d", r.Counter("shared").Value())
	}
}
