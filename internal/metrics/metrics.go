// Package metrics provides cheap counters and latency recorders shared by
// every layer of the DataLinks stack. The experiment harness, the benchmark
// ledger and the /metrics exposition all read the same counters and the same
// fixed-size histograms, so a percentile in a table and the one on a dashboard
// cannot disagree.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Histogram records durations into fixed-size log-linear buckets: one octave
// per power of two, 64 linear sub-buckets per octave, so any reconstructed
// quantile is within 1/128 (0.79%) of the true sample value while memory
// stays bounded no matter how many samples a soak-length run observes.
// Count, sum (hence mean) and max are tracked exactly.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets []uint64 // grown on demand, capped by bucketIndex range
}

// bucketIndex maps a duration to its log-linear bucket. Durations below 64ns
// get exact unit buckets; above that, each power-of-two octave splits into 64
// linear sub-buckets.
func bucketIndex(d time.Duration) int {
	u := uint64(d)
	if d < 0 {
		u = 0
	}
	if u < 64 {
		return int(u)
	}
	shift := bits.Len64(u) - 7
	return int(u>>uint(shift)) + shift<<6
}

// bucketValue returns the midpoint of a bucket, the value Quantile reports
// for samples that landed there.
func bucketValue(idx int) time.Duration {
	if idx < 64 {
		return time.Duration(idx)
	}
	shift := idx>>6 - 1
	sub := idx - shift<<6 // in [64, 128)
	lo := uint64(sub) << uint(shift)
	return time.Duration(lo + 1<<uint(shift)/2)
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	idx := bucketIndex(d)
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if idx >= len(h.buckets) {
		grown := make([]uint64, idx+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[idx]++
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Sum returns the exact total of all recorded samples.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.count, h.sum, h.max = 0, 0, 0
	h.buckets = nil
	h.mu.Unlock()
}

// Mean returns the mean of the recorded samples, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples, or 0 if
// empty. The value is the midpoint of the bucket holding the q-th order
// statistic — within 0.79% of the exact sample.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for idx, n := range h.buckets {
		cum += int64(n)
		if cum >= rank {
			v := bucketValue(idx)
			if v > h.max {
				return h.max // the top bucket's midpoint can overshoot the true max
			}
			return v
		}
	}
	return h.max
}

// Merge adds every sample o holds to h, bucket by bucket, so a quantile of h
// afterwards is the quantile of one histogram fed both streams — how
// per-server histograms become a cross-server one. o is copied out and
// released before h is locked: the two locks are never held together.
func (h *Histogram) Merge(o *Histogram) {
	o.mu.Lock()
	count, sum, top := o.count, o.sum, o.max
	buckets := append([]uint64(nil), o.buckets...)
	o.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.count += count
	h.sum += sum
	h.max = max(h.max, top)
	for len(h.buckets) < len(buckets) {
		h.buckets = append(h.buckets, 0)
	}
	for idx, n := range buckets {
		h.buckets[idx] += n
	}
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Registry is a named collection of counters and histograms. The zero value
// is not usable; call NewRegistry.
//
// Lookups use sync.Map so the steady state — every hot-path counter already
// created — is a lock-free read. Counter() on an instrumented fast path
// therefore never serializes concurrent operations against each other.
type Registry struct {
	ctrs  sync.Map // string -> *Counter
	hists sync.Map // string -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.ctrs.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.ctrs.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Histogram returns the histogram with the given name, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := r.hists.LoadOrStore(name, &Histogram{})
	return h.(*Histogram)
}

// ResetAll zeroes every counter and clears every histogram.
func (r *Registry) ResetAll() {
	r.ctrs.Range(func(_, v any) bool {
		v.(*Counter).Reset()
		return true
	})
	r.hists.Range(func(_, v any) bool {
		v.(*Histogram).Reset()
		return true
	})
}

// NameValue is one counter in a Snapshot.
type NameValue struct {
	Name  string
	Value int64
}

// Snapshot returns every counter as name→value pairs sorted by name — the
// enumeration order consumers (table printers, the metrics exposition
// endpoint) can rely on.
func (r *Registry) Snapshot() []NameValue {
	var out []NameValue
	r.ctrs.Range(func(k, v any) bool {
		out = append(out, NameValue{Name: k.(string), Value: v.(*Counter).Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedHistogram is one histogram in a Histograms enumeration.
type NamedHistogram struct {
	Name string
	Hist *Histogram
}

// Histograms returns every histogram sorted by name.
func (r *Registry) Histograms() []NamedHistogram {
	var out []NamedHistogram
	r.hists.Range(func(k, v any) bool {
		out = append(out, NamedHistogram{Name: k.(string), Hist: v.(*Histogram)})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders all counters sorted by name, one per line.
func (r *Registry) String() string {
	s := ""
	for _, nv := range r.Snapshot() {
		s += fmt.Sprintf("%-40s %d\n", nv.Name, nv.Value)
	}
	return s
}
