package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Failure classes of a request, reported under the failed count.
const (
	FailHTTPStatus   = "http_status"
	FailQueueFull    = "queue_full_503"
	FailTimeout      = "timeout"
	FailTransport    = "transport"
	FailByteMismatch = "byte_mismatch"
)

// requestTimeout bounds one request at the client; xqserve's own default
// deadline is the same 30 s.
const requestTimeout = 30 * time.Second

// Sample is one completed request as the client saw it.
type Sample struct {
	// N is the request's position in the replayed sequence, counted from
	// the driver's first request; Cell indexes Driver.Cells.
	N    int
	Cell int
	// Start and End are offsets from the driver's creation: request sent,
	// last body byte read. TTFB (first response byte), Wait and Exec (the
	// X-Query-Wait and X-Query-Exec response headers) are only recorded
	// in detail mode.
	Start, TTFB, End time.Duration
	Wait, Exec       time.Duration
	Bytes            int
	// Fail is empty for a verified response, else the failure class.
	Fail string
}

// Latency is client send to last byte.
func (s Sample) Latency() time.Duration { return s.End - s.Start }

// Driver replays a request sequence against a server in a closed loop:
// each client sends its next request only after reading and verifying the
// previous response.
type Driver struct {
	cells []Cell
	seq   []int
	urls  []string
	refs  []Ref
	t0    time.Time
	next  atomic.Int64
	http  *http.Client

	// Detail turns on the per-request extras of the traced run: the
	// first-byte time, the server's timing headers, and an X-Request-ID
	// that ties the client's spans to the server's slow log.
	Detail bool
	// OnSample, when set, is called by the client goroutine after each
	// request; the traced replay records its spans here.
	OnSample func(Sample)
}

// NewDriver prepares the replay of seq (indices into cells) against the
// server at baseURL. Every cell needs a reference in refs.
func NewDriver(baseURL string, cells []Cell, seq []int, refs map[string]Ref) (*Driver, error) {
	d := &Driver{cells: cells, seq: seq, t0: time.Now()}
	for _, c := range cells {
		ref, ok := refs[c.RefKey()]
		if !ok {
			return nil, fmt.Errorf("bench: no reference for %s on %s", c.Label, c.System)
		}
		d.urls = append(d.urls, baseURL+c.Path())
		d.refs = append(d.refs, ref)
	}
	d.http = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: Clients,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
	return d, nil
}

// Close drops the keep-alive connections.
func (d *Driver) Close() { d.http.CloseIdleConnections() }

// Since returns the offset of t on the driver's clock, the one samples
// are stamped with.
func (d *Driver) Since(t time.Time) time.Duration { return t.Sub(d.t0) }

// RequestID names the n-th request of the replay, in spans and in the
// X-Request-ID header.
func RequestID(n int) string { return fmt.Sprintf("http-%d", n) }

// Rewind makes the next Run start from the first sequence entry again.
func (d *Driver) Rewind() { d.next.Store(0) }

// Run drives the server with the given number of clients until the
// deadline passes or, when limit > 0, until limit more requests have been
// issued, whichever comes first. It continues the sequence where the
// previous Run stopped, wrapping around cyclically, and returns the
// samples ordered by N. Requests in flight at the deadline complete.
func (d *Driver) Run(ctx context.Context, clients, limit int, deadline time.Time) ([]Sample, error) {
	first := d.next.Load()
	perClient := make([][]Sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				n := d.next.Add(1) - 1
				if limit > 0 && n >= first+int64(limit) {
					d.next.Add(-1)
					return
				}
				s := d.do(ctx, int(n), &body)
				perClient[c] = append(perClient[c], s)
				if d.OnSample != nil {
					d.OnSample(s)
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var all []Sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].N < all[j].N })
	return all, nil
}

// do sends request n and verifies the response.
func (d *Driver) do(ctx context.Context, n int, body *bytes.Buffer) Sample {
	cell := d.seq[n%len(d.seq)]
	s := Sample{N: n, Cell: cell}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.urls[cell], nil)
	if err != nil {
		s.Fail = FailTransport
		return s
	}
	if d.Detail {
		req.Header.Set("X-Request-ID", RequestID(n))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { s.TTFB = time.Since(d.t0) },
		}))
	}
	s.Start = time.Since(d.t0)
	resp, err := d.http.Do(req)
	if err == nil {
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.End = time.Since(d.t0)
	if err != nil {
		s.Fail = FailTransport
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.Fail = FailTimeout
		}
		return s
	}
	s.Bytes = body.Len()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		s.Fail = FailQueueFull
	case resp.StatusCode != http.StatusOK:
		s.Fail = FailHTTPStatus
	case s.Bytes != d.refs[cell].Len || crc32.Checksum(body.Bytes(), castagnoli) != d.refs[cell].CRC:
		s.Fail = FailByteMismatch
	}
	if d.Detail {
		// Absent or malformed headers leave the zero duration.
		s.Wait, _ = time.ParseDuration(resp.Header.Get("X-Query-Wait"))
		s.Exec, _ = time.ParseDuration(resp.Header.Get("X-Query-Exec"))
	}
	return s
}

// CountFailures tallies failed samples by class.
func CountFailures(samples []Sample) (failed int, byClass map[string]int) {
	byClass = make(map[string]int)
	for _, s := range samples {
		if s.Fail != "" {
			failed++
			byClass[s.Fail]++
		}
	}
	return failed, byClass
}
