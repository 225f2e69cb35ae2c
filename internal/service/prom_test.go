package service

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePromFormat pins the exposition format: after a few
// observations the scrape must carry the outcome counters, both latency
// histograms with consistent _count lines, and the per-query summary
// rows, each under exactly one TYPE declaration.
func TestWritePromFormat(t *testing.T) {
	m := NewMetrics()
	m.observe("D", 8, 100*time.Microsecond, 2*time.Millisecond)
	m.observe("D", 8, 200*time.Microsecond, 3*time.Millisecond)
	m.observe("B", 0, 0, 1*time.Millisecond)
	m.failed.Add(1)

	var b strings.Builder
	m.WriteProm(&b)
	out := b.String()
	for _, w := range []string{
		`xq_requests_total{outcome="completed"} 3`,
		`xq_requests_total{outcome="failed"} 1`,
		"xq_exec_seconds_count 3",
		"xq_queue_wait_seconds_count 3",
		`xq_query_exec_seconds_count{system="D",query="Q8"} 2`,
		`xq_query_exec_seconds_count{system="B",query="adhoc"} 1`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("scrape is missing %q:\n%s", w, out)
		}
	}
	if n := strings.Count(out, "# TYPE xq_exec_seconds "); n != 1 {
		t.Errorf("xq_exec_seconds declared %d times", n)
	}
}

// TestCatalogPromStoreBytes pins the size gauge: one xq_store_bytes sample
// per loaded system, in catalog order, carrying the store's own Stats.
func TestCatalogPromStoreBytes(t *testing.T) {
	c := testCat(t)
	var b strings.Builder
	c.WriteProm(&b)
	out := b.String()
	if n := strings.Count(out, "# TYPE xq_store_bytes gauge\n"); n != 1 {
		t.Errorf("xq_store_bytes declared %d times", n)
	}
	at := 0
	for _, sys := range c.Systems() {
		inst, err := c.Instance(sys.ID)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("xq_store_bytes{system=%q} %d\n", string(sys.ID), inst.Stats.SizeBytes)
		i := strings.Index(out[at:], line)
		if i < 0 {
			t.Fatalf("scrape is missing %q after offset %d:\n%s", line, at, out)
		}
		at += i + len(line)
	}
	if at != len(out) {
		t.Errorf("scrape has samples beyond the loaded systems:\n%s", out)
	}
}

// TestWaitQuantilesVisible pins the queue-wait histogram satellite: a
// spread of waits must surface as monotone wait quantiles in the
// snapshot, not just a mean — admission-queue saturation has to be
// visible before it turns into 503s.
func TestWaitQuantilesVisible(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.observe("D", 1, time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	s := m.Snapshot()
	if !(s.WaitP50Ms <= s.WaitP95Ms && s.WaitP95Ms <= s.WaitP99Ms) {
		t.Fatalf("wait quantiles not monotone: %v %v %v", s.WaitP50Ms, s.WaitP95Ms, s.WaitP99Ms)
	}
	if s.WaitP50Ms < 25 || s.WaitP50Ms > 80 {
		t.Errorf("wait p50 = %vms implausible for uniform 1..100ms", s.WaitP50Ms)
	}
	if len(s.Queries) == 0 {
		t.Error("snapshot has no per-query rows")
	}
}

// TestConcurrentMetricsScrape hammers observe from many goroutines while
// others scrape Snapshot and WriteProm concurrently; under -race this
// proves a scrape never tears counters. It rides the CI race job's
// Concurrent test selection.
func TestConcurrentMetricsScrape(t *testing.T) {
	m := NewMetrics()
	const writers, perWriter, scrapes = 8, 400, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.observe("D", 1+(i%20), time.Microsecond, time.Duration(i%997)*time.Microsecond)
			}
		}()
	}
	for i := 0; i < scrapes; i++ {
		m.WriteProm(io.Discard)
		_ = m.Snapshot()
	}
	wg.Wait()

	var b strings.Builder
	m.WriteProm(&b)
	s := m.Snapshot()
	if s.Completed != writers*perWriter {
		t.Fatalf("completed = %d, want %d", s.Completed, writers*perWriter)
	}
	if !strings.Contains(b.String(), "xq_requests_total") {
		t.Fatal("final scrape empty")
	}
}
