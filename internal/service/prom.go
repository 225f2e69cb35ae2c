package service

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// WriteProm renders the metrics in the Prometheus text exposition format:
// request outcome counters, queue gauges, the exec and queue-wait latency
// histograms (cumulative le buckets, seconds), and per-system × per-query
// completion counts and time sums. Reads are the same atomics observe
// writes, so a scrape races benignly with recording — counters are
// monotone and each line is internally consistent; the histogram's +Inf
// bucket is derived from the same loads as the buckets, so a scrape can
// never show a bucket count above its +Inf.
func (m *Metrics) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP xq_requests_total Requests by outcome.\n# TYPE xq_requests_total counter\n")
	fmt.Fprintf(w, "xq_requests_total{outcome=\"completed\"} %d\n", m.completed.Load())
	fmt.Fprintf(w, "xq_requests_total{outcome=\"failed\"} %d\n", m.failed.Load())
	fmt.Fprintf(w, "xq_requests_total{outcome=\"rejected\"} %d\n", m.rejected.Load())
	fmt.Fprintf(w, "xq_requests_total{outcome=\"canceled\"} %d\n", m.canceled.Load())

	fmt.Fprintf(w, "# HELP xq_queue_depth Requests waiting in the admission queue.\n# TYPE xq_queue_depth gauge\n")
	fmt.Fprintf(w, "xq_queue_depth %d\n", m.queueDepth.Load())
	fmt.Fprintf(w, "# HELP xq_in_flight Requests currently executing.\n# TYPE xq_in_flight gauge\n")
	fmt.Fprintf(w, "xq_in_flight %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# HELP xq_buf_pool_total Output-buffer pool lookups by outcome.\n# TYPE xq_buf_pool_total counter\n")
	fmt.Fprintf(w, "xq_buf_pool_total{outcome=\"hit\"} %d\n", m.bufHits.Load())
	fmt.Fprintf(w, "xq_buf_pool_total{outcome=\"miss\"} %d\n", m.bufMisses.Load())

	writePromHist(w, "xq_exec_seconds", "Execution time of completed requests.",
		&m.hist, m.latSum.Load())
	writePromHist(w, "xq_queue_wait_seconds", "Admission-queue wait of completed requests.",
		&m.waitHist, m.waitSum.Load())

	type row struct {
		sys, q string
		count  uint64
		sumNs  int64
	}
	var rows []row
	m.perQuery.Range(func(k, v any) bool {
		key := k.(prepKey)
		qs := v.(*queryStats)
		rows = append(rows, row{
			sys:   string(key.sys),
			q:     queryName(key.qid),
			count: qs.completed.Load(),
			sumNs: qs.latSum.Load(),
		})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sys != rows[j].sys {
			return rows[i].sys < rows[j].sys
		}
		return rows[i].q < rows[j].q
	})
	fmt.Fprintf(w, "# HELP xq_query_exec_seconds Per-system per-query execution time of completed requests.\n# TYPE xq_query_exec_seconds summary\n")
	for _, r := range rows {
		fmt.Fprintf(w, "xq_query_exec_seconds_count{system=%q,query=%q} %d\n", r.sys, r.q, r.count)
		fmt.Fprintf(w, "xq_query_exec_seconds_sum{system=%q,query=%q} %.9f\n", r.sys, r.q, float64(r.sumNs)/1e9)
	}
}

// WriteProm renders the catalog's size gauges: the attributed bytes of
// each loaded system's store (stores of one catalog share the document's
// text heap, which each one counts). The catalog is immutable, so the values are fixed
// at load.
func (c *Catalog) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP xq_store_bytes Attributed size of each loaded system's store, text index excluded.\n# TYPE xq_store_bytes gauge\n")
	for _, s := range c.StoreBytes() {
		fmt.Fprintf(w, "xq_store_bytes{system=%q} %d\n", string(s.System), s.Bytes)
	}
}

// writePromHist renders one atomic histogram as a Prometheus histogram:
// cumulative bucket counts under le bounds in seconds, the +Inf bucket,
// and the _sum/_count pair.
func writePromHist(w io.Writer, name, help string, hist *[histBuckets + 1]atomic.Uint64, sumNs int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += hist[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%.9f\"} %d\n", name, histBounds[i]/1e9, cum)
	}
	cum += hist[histBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %.9f\n", name, float64(sumNs)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
