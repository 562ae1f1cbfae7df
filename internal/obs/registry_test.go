package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Max(5)
	r.Histogram("h").Observe(7)
	r.MergeInto(NewRegistry())
	if err := r.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value %d", v)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	r.Counter("records").Add(10)
	r.Counter("records").Inc()
	if v := r.Counter("records").Value(); v != 11 {
		t.Fatalf("counter = %d, want 11", v)
	}
	g := r.Gauge("live")
	g.Max(4)
	g.Max(9)
	g.Max(2)
	if v := g.Value(); v != 9 {
		t.Fatalf("gauge = %d, want 9", v)
	}
	h := r.Histogram("bytes")
	for _, v := range []int64{0, 1, 7, 8, 1024, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Min != 0 || s.Max != 1<<40 || s.Sum != 0+1+7+8+1024+1<<40 {
		t.Fatalf("histogram snapshot %+v", s)
	}
	if err := r.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap["records"] != 11 || snap["bytes.count"] != 6 {
		t.Fatalf("snapshot %v", snap)
	}
}

func TestSelfCheckCatchesMisuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(-3)
	if err := r.SelfCheck(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative counter add not caught: %v", err)
	}
	r2 := NewRegistry()
	r2.Histogram("h").Observe(-1)
	if err := r2.SelfCheck(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative observation not caught: %v", err)
	}
	// Hand-corrupt a histogram to desync buckets from count.
	r3 := NewRegistry()
	h := r3.Histogram("h")
	h.Observe(5)
	h.mu.Lock()
	h.count = 2
	h.mu.Unlock()
	if err := r3.SelfCheck(); err == nil || !strings.Contains(err.Error(), "bucket total") {
		t.Fatalf("bucket desync not caught: %v", err)
	}
}

func TestMergeInto(t *testing.T) {
	per := NewRegistry()
	per.Counter("n").Add(5)
	per.Gauge("hw").Max(3)
	per.Histogram("lat").Observe(10)
	per.Histogram("lat").Observe(20)

	dst := NewRegistry()
	dst.Counter("n").Add(2)
	dst.Gauge("hw").Max(8)
	dst.Histogram("lat").Observe(100)

	per.MergeInto(dst)
	if v := dst.Counter("n").Value(); v != 7 {
		t.Fatalf("merged counter = %d, want 7", v)
	}
	if v := dst.Gauge("hw").Value(); v != 8 {
		t.Fatalf("merged gauge = %d, want max 8", v)
	}
	s := dst.Histogram("lat").Snapshot()
	if s.Count != 3 || s.Sum != 130 || s.Min != 10 || s.Max != 100 {
		t.Fatalf("merged histogram %+v", s)
	}
	if err := dst.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryConcurrent hammers all three instrument kinds from many
// goroutines; with -race this is the registry's data-race check, and
// SelfCheck at the end proves the aggregates stayed consistent.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Max(int64(w*each + i))
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != workers*each {
		t.Fatalf("counter = %d, want %d", v, workers*each)
	}
	if s := r.Histogram("h").Snapshot(); s.Count != workers*each {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*each)
	}
	if err := r.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
