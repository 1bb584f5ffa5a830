package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatalf("empty histogram not zeroed: count=%d mean=%v p50=%v",
			h.Count(), h.Mean(), h.Percentile(50))
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram min/max: %v %v", h.Min(), h.Max())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Mean() != 100*time.Microsecond {
		t.Fatalf("mean = %v, want 100µs", h.Mean())
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	// p50 of 1..1000 µs is ~500µs; log-bucket estimate must be within
	// one power of two above.
	p50 := h.Percentile(50)
	if p50 < 500*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Fatalf("p50 = %v, want within [500µs, 1024µs]", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 990*time.Microsecond || p99 > 2048*time.Microsecond {
		t.Fatalf("p99 = %v, want within [990µs, 2048µs]", p99)
	}
	if h.Percentile(100) < h.Percentile(50) {
		t.Fatal("percentiles not monotone")
	}
}

func TestHistogramNegativeDurationClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Fatalf("min = %v, want 0", h.Min())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(i%100) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestNines(t *testing.T) {
	cases := []struct {
		ratio float64
		want  float64
	}{
		{0.9, 1},
		{0.99, 2},
		{0.999, 3},
		{0.99999, 5},
	}
	for _, c := range cases {
		if got := Nines(c.ratio); math.Abs(got-c.want) > 0.01 {
			t.Errorf("Nines(%v) = %v, want %v", c.ratio, got, c.want)
		}
	}
	if !math.IsInf(Nines(1), 1) {
		t.Error("Nines(1) should be +Inf")
	}
	if Nines(0) != 0 {
		t.Error("Nines(0) should be 0")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Mark(100)
	if m.Count() != 100 {
		t.Fatalf("count = %d", m.Count())
	}
	time.Sleep(time.Millisecond)
	if m.Rate() <= 0 {
		t.Fatalf("rate = %v, want > 0", m.Rate())
	}
}

func TestSeriesSortedPoints(t *testing.T) {
	s := NewSeries("test")
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	pts := s.Points()
	if len(pts) != 3 || s.Len() != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			t.Fatalf("points not sorted: %v", pts)
		}
	}
	if pts[0].Y != 10 || pts[2].Y != 30 {
		t.Fatalf("wrong values: %v", pts)
	}
}

func TestBucketFor(t *testing.T) {
	if bucketFor(0) != 0 {
		t.Error("bucket for 0")
	}
	if bucketFor(time.Microsecond) != 0 {
		t.Error("bucket for 1µs")
	}
	if bucketFor(2*time.Microsecond) != 1 {
		t.Error("bucket for 2µs")
	}
	if bucketFor(1024*time.Microsecond) != 10 {
		t.Error("bucket for 1024µs")
	}
}
