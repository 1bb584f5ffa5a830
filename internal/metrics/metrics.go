// Package metrics provides the measurement primitives used by every
// experiment in this repository: latency histograms, availability
// accounting, staleness counters and throughput meters.
//
// All types are safe for concurrent use. The histogram uses fixed
// logarithmic buckets so recording is lock-free and allocation-free,
// which keeps the act of measuring from perturbing the latencies
// being measured.
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

// bucketCount is the number of logarithmic latency buckets.
// Bucket i covers [2^i, 2^(i+1)) microseconds, i in [0, bucketCount).
// 2^63 µs is far beyond any latency we measure.
const bucketCount = 64

// Histogram is a lock-free logarithmic latency histogram.
// The zero value is ready to use.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	min     atomic.Int64 // microseconds; math.MaxInt64 when empty
	max     atomic.Int64 // microseconds
	once    sync.Once
	// exemplars holds one trace-linked observation per export bucket
	// (slot exportBucketCount is the +Inf bucket). Lock-free pointer
	// publish, last writer wins: sampled requests overwrite the slot
	// their latency lands in, so a scrape's p99 bucket carries the ID
	// of a recent trace that actually paid that latency.
	exemplars [exportBucketCount + 1]atomic.Pointer[exemplar]
}

// exemplar links one observation to the trace that produced it
// (OpenMetrics exemplars).
type exemplar struct {
	traceID string
	value   float64 // seconds
}

func (h *Histogram) init() {
	h.once.Do(func() { h.min.Store(math.MaxInt64) })
}

// bucketFor returns the bucket index for a duration.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := 63 - bits.LeadingZeros64(uint64(us))
	if b >= bucketCount {
		b = bucketCount - 1
	}
	return b
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.init()
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		cur := h.min.Load()
		if us >= cur || h.min.CompareAndSwap(cur, us) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			break
		}
	}
}

// SetExemplar attaches a trace ID to the export bucket d falls in.
// Call it only for observations already Recorded and only for sampled
// traces; the unsampled hot path never touches the slots.
func (h *Histogram) SetExemplar(d time.Duration, traceID string) {
	if traceID == "" {
		return
	}
	b := bucketFor(d)
	if b >= exportBucketCount {
		b = exportBucketCount // +Inf slot
	}
	h.exemplars[b].Store(&exemplar{traceID: traceID, value: d.Seconds()})
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean of recorded observations.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/n) * time.Microsecond
}

// Min returns the smallest recorded observation.
func (h *Histogram) Min() time.Duration {
	h.init()
	m := h.min.Load()
	if m == math.MaxInt64 {
		return 0
	}
	return time.Duration(m) * time.Microsecond
}

// Max returns the largest recorded observation.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load()) * time.Microsecond
}

// Percentile returns an upper-bound estimate of the p-th percentile
// (p in [0,100]). The estimate is the upper edge of the logarithmic
// bucket containing the percentile, so it is within 2x of the true
// value, which is adequate for the order-of-magnitude comparisons the
// experiments make.
func (h *Histogram) Percentile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < bucketCount; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			// Upper edge of bucket i is 2^(i+1) µs.
			return time.Duration(1<<uint(i+1)) * time.Microsecond
		}
	}
	return h.Max()
}

// Snapshot captures the histogram's state for reporting.
type Snapshot struct {
	Count          int64
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
	P999           time.Duration
}

// Snapshot returns a point-in-time summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// String renders the snapshot as a single report row.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// Counter is an atomic event counter. The zero value is ready to use.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an atomic float64 instantaneous value. The zero value is
// ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// exportBucketCount caps the number of histogram buckets exposed to
// scrapers: buckets 0..exportBucketCount-1 get explicit upper bounds
// (2^1 µs .. 2^exportBucketCount µs ≈ 67s); everything above folds
// into the +Inf bucket. The bound set is fixed, so rate() and
// histogram_quantile() work across scrapes.
const exportBucketCount = 26

// HistogramBucket is one cumulative bucket of an exported histogram.
type HistogramBucket struct {
	// LE is the inclusive upper bound in seconds.
	LE float64
	// Count is the cumulative observation count at or below LE.
	Count int64
	// Exemplar is the trace ID of one observation that landed in this
	// bucket ("" when none); ExemplarValue is that observation's
	// latency in seconds.
	Exemplar      string
	ExemplarValue float64
}

// HistogramExport is a scraper-facing histogram snapshot with
// Prometheus-style cumulative buckets.
type HistogramExport struct {
	Buckets []HistogramBucket
	// Count is the total observation count (the +Inf bucket).
	Count int64
	// Sum is the observation sum in seconds.
	Sum float64
	// InfExemplar / InfExemplarValue carry the +Inf bucket's exemplar.
	InfExemplar      string
	InfExemplarValue float64
}

// Export snapshots the histogram with cumulative buckets in seconds.
// Count is derived from the bucket array (not the separate count
// field) so the exported snapshot is always internally consistent:
// the +Inf bucket equals Count even if observations land mid-export.
func (h *Histogram) Export() *HistogramExport {
	out := &HistogramExport{
		Buckets: make([]HistogramBucket, exportBucketCount),
		Sum:     float64(h.sum.Load()) / 1e6,
	}
	var cum int64
	for i := 0; i < bucketCount; i++ {
		n := h.buckets[i].Load()
		cum += n
		if i < exportBucketCount {
			out.Buckets[i] = HistogramBucket{
				// Upper edge of bucket i is 2^(i+1) µs.
				LE:    float64(int64(1)<<uint(i+1)) / 1e6,
				Count: cum,
			}
			if ex := h.exemplars[i].Load(); ex != nil {
				out.Buckets[i].Exemplar = ex.traceID
				out.Buckets[i].ExemplarValue = ex.value
			}
		}
	}
	out.Count = cum
	if ex := h.exemplars[exportBucketCount].Load(); ex != nil {
		out.InfExemplar = ex.traceID
		out.InfExemplarValue = ex.value
	}
	return out
}

// Nines converts an availability ratio into "number of nines",
// e.g. 0.99999 -> 5.0. A ratio of 1 reports +Inf nines.
func Nines(ratio float64) float64 {
	if ratio >= 1 {
		return math.Inf(1)
	}
	if ratio <= 0 {
		return 0
	}
	return -math.Log10(1 - ratio)
}

// Meter measures throughput over its lifetime.
type Meter struct {
	start time.Time
	n     atomic.Int64
}

// NewMeter returns a meter whose clock starts now.
func NewMeter() *Meter { return &Meter{start: time.Now()} }

// Mark records n events.
func (m *Meter) Mark(n int64) { m.n.Add(n) }

// Rate returns events per second since the meter was created.
func (m *Meter) Rate() float64 {
	elapsed := time.Since(m.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.n.Load()) / elapsed
}

// Count returns the number of marked events.
func (m *Meter) Count() int64 { return m.n.Load() }

// Series is a named sequence of (x, y) points used by experiment
// reports, e.g. "availability vs time" or "lookup cost vs N".
type Series struct {
	Name   string
	mu     sync.Mutex
	points []Point
}

// Point is one sample in a Series.
type Point struct {
	X, Y float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points = append(s.points, Point{x, y})
}

// Points returns a sorted-by-X copy of the series.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}
