package resilience

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestDeadlineFallbackBeforeMinSamples(t *testing.T) {
	d := NewDeadlineTracker(DeadlineConfig{Max: 30 * time.Second, MinSamples: 3})
	if got := d.DeadlineFor(100); got != 30*time.Second {
		t.Fatalf("DeadlineFor with no samples = %v, want Max", got)
	}
	d.Observe(10*time.Millisecond, 10)
	d.Observe(10*time.Millisecond, 10)
	if got := d.DeadlineFor(100); got != 30*time.Second {
		t.Fatalf("DeadlineFor with 2 < MinSamples samples = %v, want Max", got)
	}
}

func TestDeadlineScalesWithBlockSize(t *testing.T) {
	d := NewDeadlineTracker(DeadlineConfig{
		Multiplier: 2,
		Quantile:   0.5,
		Min:        time.Millisecond,
		Max:        time.Hour,
		MinSamples: 1,
	})
	// 100ms for 10 tuples = 10ms/tuple; every sample identical so any
	// quantile is 10ms.
	for i := 0; i < 5; i++ {
		d.Observe(100*time.Millisecond, 10)
	}
	// size 50: 2 × 10ms × 50 = 1s
	if got, want := d.DeadlineFor(50), time.Second; got != want {
		t.Fatalf("DeadlineFor(50) = %v, want %v", got, want)
	}
	// size 500: 10× larger block, 10× larger deadline
	if got, want := d.DeadlineFor(500), 10*time.Second; got != want {
		t.Fatalf("DeadlineFor(500) = %v, want %v", got, want)
	}
}

func TestDeadlineClamping(t *testing.T) {
	d := NewDeadlineTracker(DeadlineConfig{
		Multiplier: 1,
		Quantile:   0.5,
		Min:        time.Second,
		Max:        5 * time.Second,
		MinSamples: 1,
	})
	d.Observe(time.Millisecond, 1) // 1ms/tuple
	if got := d.DeadlineFor(1); got != time.Second {
		t.Fatalf("tiny estimate should clamp to Min: got %v", got)
	}
	if got := d.DeadlineFor(1_000_000); got != 5*time.Second {
		t.Fatalf("huge estimate should clamp to Max: got %v", got)
	}
}

func TestDeadlineUsesQuantileOfWindow(t *testing.T) {
	d := NewDeadlineTracker(DeadlineConfig{
		Multiplier: 1,
		Quantile:   1.0, // max of the window
		Min:        time.Microsecond,
		Max:        time.Hour,
		MinSamples: 1,
		Window:     4,
	})
	// Fill the window, then push it out with faster samples: the old slow
	// sample must age out of the ring.
	d.Observe(400*time.Millisecond, 1) // 400ms/tuple — will be evicted
	for i := 0; i < 4; i++ {
		d.Observe(10*time.Millisecond, 1)
	}
	if got, want := d.DeadlineFor(1), 10*time.Millisecond; got != want {
		t.Fatalf("DeadlineFor after eviction = %v, want %v", got, want)
	}
}

func TestDeadlineIgnoresBadObservations(t *testing.T) {
	d := NewDeadlineTracker(DeadlineConfig{MinSamples: 1})
	d.Observe(0, 10)
	d.Observe(-time.Second, 10)
	if got := d.Samples(); got != 0 {
		t.Fatalf("non-positive RTTs should be ignored, have %d samples", got)
	}
	d.Observe(time.Second, 0) // zero tuples counts as one
	if got := d.Samples(); got != 1 {
		t.Fatalf("Samples = %d, want 1", got)
	}
}

func TestQuantileSorted(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.95, 7},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{10, 20}, 0.75, 17.5},
	}
	for _, tc := range cases {
		if got := quantileSorted(tc.sorted, tc.q); got != tc.want {
			t.Errorf("quantileSorted(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
}

// referenceDeadline is the computation the sorted window replaced: keep
// the samples in arrival order, and for every deadline copy them, sort
// the copy and read the quantile off it.
type referenceDeadline struct {
	cfg     DeadlineConfig
	samples []float64
	next    int
}

func (d *referenceDeadline) observe(rtt time.Duration, tuples int) {
	if rtt <= 0 {
		return
	}
	if tuples < 1 {
		tuples = 1
	}
	perTuple := float64(rtt) / float64(time.Millisecond) / float64(tuples)
	if len(d.samples) < d.cfg.Window {
		d.samples = append(d.samples, perTuple)
		return
	}
	d.samples[d.next] = perTuple
	d.next = (d.next + 1) % d.cfg.Window
}

func (d *referenceDeadline) deadlineFor(size int) time.Duration {
	if size < 1 {
		size = 1
	}
	if len(d.samples) < d.cfg.MinSamples {
		return d.cfg.Max
	}
	sorted := append([]float64(nil), d.samples...)
	sort.Float64s(sorted)
	ms := d.cfg.Multiplier * quantileSorted(sorted, d.cfg.Quantile) * float64(size)
	dl := time.Duration(ms * float64(time.Millisecond))
	return min(max(dl, d.cfg.Min), d.cfg.Max)
}

// TestDeadlineMatchesCopyAndSort: the sorted window must answer every
// deadline with the bits the copy-and-sort computation gives, over
// random observe sequences — windows that wrap many times, duplicate
// samples, ignored observations (rtt <= 0), the tuples <= 0 rule, and
// questions asked before and after MinSamples.
func TestDeadlineMatchesCopyAndSort(t *testing.T) {
	type obs struct {
		RTT    int8 // x100 microseconds; half are <= 0
		Tuples int8
	}
	check := func(window, minSamples uint8, quantile uint8, seq []obs, sizes []int16) bool {
		cfg := DeadlineConfig{
			Window:     int(window%9) + 1, // small, so it wraps and duplicates collide
			MinSamples: int(minSamples%4) + 1,
			Quantile:   float64(quantile%101) / 100,
			Min:        time.Microsecond,
			Max:        time.Hour,
		}
		d := NewDeadlineTracker(cfg)
		ref := &referenceDeadline{cfg: d.cfg}
		for i, o := range seq {
			// Few distinct values, so equal samples meet in one window.
			rtt, tuples := time.Duration(o.RTT%24)*100*time.Microsecond, int(o.Tuples%3)
			d.Observe(rtt, tuples)
			ref.observe(rtt, tuples)
			size := 1
			if len(sizes) > 0 {
				size = int(sizes[i%len(sizes)])
			}
			if got, want := d.DeadlineFor(size), ref.deadlineFor(size); got != want {
				t.Logf("after %d observations (window %d): DeadlineFor(%d) = %v, copy-and-sort gives %v", i+1, d.cfg.Window, size, got, want)
				return false
			}
			if d.Samples() != len(ref.samples) {
				t.Logf("after %d observations: %d samples retained, want %d", i+1, d.Samples(), len(ref.samples))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineForDoesNotAllocate gates the per-pull cost: a deadline is
// a quantile read under the lock, with no copy of the window.
func TestDeadlineForDoesNotAllocate(t *testing.T) {
	d := NewDeadlineTracker(DeadlineConfig{})
	for i := 1; i <= 200; i++ {
		d.Observe(time.Duration(i%17+1)*time.Millisecond, 64)
	}
	var sink time.Duration
	if allocs := testing.AllocsPerRun(100, func() {
		d.Observe(3*time.Millisecond, 64)
		sink += d.DeadlineFor(64)
	}); allocs != 0 {
		t.Fatalf("Observe + DeadlineFor allocate %v times per block, want 0", allocs)
	}
	_ = sink
}
