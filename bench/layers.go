package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// RunPerLayer is the traced run of one workload. It is separate from the
// end-to-end rounds and produces the per-layer metrics only:
//
//  1. against a live server: a closed-loop phase in detail mode (client
//     and header-derived metrics), then one client replays the first
//     TraceEntries sequence entries, alternately without and with span
//     recording;
//  2. with the server stopped: the same entries are replayed on one
//     goroutine against an in-process service.Catalog with spans around
//     the calls into each layer;
//  3. against a second live server: two more traced replays, so that the
//     server's own timings bracket the in-process ones in time;
//  4. fixed probes of the layers no workload isolates (stores, generator,
//     parsers, text index, shard tier), which do not depend on the
//     workload.
//
// Spans stay in memory and are written to trace-<workload>.json at the end.
func RunPerLayer(ctx context.Context, cfg Config, w Workload) (*Result, error) {
	res := &Result{Workload: w.Name, Mode: "per_layer", Env: NewEnv(cfg), Metrics: map[string]float64{}}
	p, err := prepare(cfg, w)
	if err != nil {
		return nil, err
	}
	entries := w.TraceEntries
	trace := NewTrace()
	// served[n] is the smallest execution time the server reported for
	// entry n over two traced replays before and two after the in-process
	// passes.
	served := make([]time.Duration, entries)

	samples, err := withLive(ctx, cfg, w, p, func(live *liveServer) error {
		return live.measure(ctx, cfg, p, entries, trace, served, res.Metrics)
	})
	if err != nil {
		return nil, err
	}

	local, err := loadInProcess(cfg, p, entries)
	if err != nil {
		return nil, err
	}
	defer local.close()
	if err := local.measure(ctx, trace, res.Metrics); err != nil {
		return nil, err
	}

	// A second server, so that the server's timings bracket the in-process
	// ones in time and a drift of the machine's speed between the two does
	// not decide the ratio.
	again, err := withLive(ctx, cfg, w, p, func(live *liveServer) error {
		for i := 0; i < 2; i++ {
			if err := live.replay(ctx, p, entries, NewTrace(), nil, served); err != nil {
				return err
			}
		}
		return nil
	})
	samples = append(samples, again...)
	if err != nil {
		return nil, err
	}
	// trace.coverage_ratio: the time the in-process engine layers account
	// for over the time the server reported for the same entries. Each side
	// is the sum over the entries of the smallest of four measurements (a
	// garbage collection or a burst of outside load multiplies single ones):
	// the same number on both sides, because the smallest of more tries is
	// smaller. The ratio is computed once.
	var sumServed time.Duration
	for _, d := range served {
		sumServed += d
	}
	cover := local.servedTotal().Seconds() / sumServed.Seconds()
	res.Metrics["trace.coverage_ratio"] = cover
	res.Attempted = len(samples)
	res.Failed, res.Failures = CountFailures(samples)
	res.Correct = res.Failed == 0

	if err := probeLayers(ctx, cfg, p.oracle, res.Metrics); err != nil {
		return nil, err
	}
	if err := trace.Write(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json"), w.Name, cfg.Seed); err != nil {
		return nil, err
	}
	// Far from 1, the in-process split does not describe what the server
	// did, and the run fails; the result is still returned for inspection.
	if cover < coverageLow || cover > coverageHigh {
		return res, fmt.Errorf("%w: %s: in-process engine time is %.3f of the server-reported time over %d entries",
			ErrCoverage, w.Name, cover, entries)
	}
	return res, nil
}

// The band trace.coverage_ratio must fall in.
const (
	coverageLow  = 0.8
	coverageHigh = 1.25
)

// ErrCoverage reports a traced run whose trace.coverage_ratio is outside
// 0.8-1.25.
var ErrCoverage = errors.New("bench: trace coverage outside 0.8-1.25")

// liveServer is a running xqserve with the driver of a traced run on it.
type liveServer struct {
	srv *Server
	d   *Driver
	// samples collects every request sent, for the failure count.
	samples []Sample
}

// withLive starts a server for the workload, runs fn against it, stops it
// whatever fn returned, and returns every sample fn's requests produced.
func withLive(ctx context.Context, cfg Config, w Workload, p *prepared, fn func(*liveServer) error) ([]Sample, error) {
	srv, err := StartServer(ctx, cfg.ServerBin, cfg.Factor, w.Systems, serverLog(cfg, w))
	if err != nil {
		return nil, err
	}
	d, err := NewDriver(srv.URL, p.cells, p.seq, p.refs)
	if err != nil {
		_ = srv.Stop() // the driver's error is the one to report
		return nil, err
	}
	live := &liveServer{srv: srv, d: d}
	err = fn(live)
	d.Close()
	if serr := srv.Stop(); err == nil {
		err = serr
	}
	return live.samples, err
}

// run drives the server for length, or for limit requests when limit > 0.
func (l *liveServer) run(ctx context.Context, clients, limit int, length time.Duration) ([]Sample, time.Duration, error) {
	start := time.Now()
	s, err := l.d.Run(ctx, clients, limit, start.Add(length))
	l.samples = append(l.samples, s...)
	return s, time.Since(start), err
}

// least keeps the smallest non-zero duration seen for entry n; a nil slice
// keeps nothing.
func least(into []time.Duration, n int, d time.Duration) {
	if into != nil && (into[n] == 0 || d < into[n]) {
		into[n] = d
	}
}

// replay has one client send the first entries once, from the start of
// the sequence. Per entry it keeps the smallest latency seen so far in
// latency. With a trace it runs in detail mode: every request becomes a
// root span xqserve.http (client send to last byte) with the children
// service.queue and service.exec from the response headers, and the
// smallest reported execution time per entry is kept in served. Either
// slice may be nil.
func (l *liveServer) replay(ctx context.Context, p *prepared, entries int, into *Trace, latency, served []time.Duration) error {
	d := l.d
	d.Rewind()
	d.Detail = into != nil
	d.OnSample = func(s Sample) {
		least(latency, s.N, s.Latency())
		if into == nil {
			return
		}
		c, id := p.cells[s.Cell], RequestID(s.N)
		start, end := d.t0.Add(s.Start), d.t0.Add(s.End)
		// The server's headers give durations, not instants: the queue wait
		// is placed at the start of the request and the execution at its end;
		// what neither covers is xqserve's HTTP handling plus the network.
		root := into.Add(0, "xqserve.http", c, id, start, end)
		into.AddAttributed(root, "service.queue", c, id, start, s.Wait)
		into.AddAttributed(root, "service.exec", c, id, end.Add(-s.Exec), s.Exec)
		least(served, s.N, s.Exec)
	}
	_, _, err := l.run(ctx, 1, entries, time.Hour)
	d.Detail, d.OnSample = false, nil
	return err
}

// measure runs the first server's part of the traced run: warm-up, the
// closed-loop detail phase, and the alternating replays.
func (l *liveServer) measure(ctx context.Context, cfg Config, p *prepared, entries int, trace *Trace, served []time.Duration, m map[string]float64) error {
	if _, _, err := l.run(ctx, Clients, 0, cfg.Warmup()); err != nil {
		return err
	}

	// Closed loop in detail mode, a third of the end-to-end length: what
	// the clients see, and how the server's own timing headers split it.
	l.d.Detail = true
	loaded, elapsed, err := l.run(ctx, Clients, 0, time.Duration(cfg.Seconds/3*float64(time.Second)))
	l.d.Detail = false
	if err != nil {
		return err
	}
	var lat, ttfb, overhead, wait, exec []float64
	var body, sumLat, sumOverhead float64
	for _, s := range loaded {
		if s.Fail != "" {
			continue
		}
		lat = append(lat, ms(s.Latency()))
		ttfb = append(ttfb, ms(s.TTFB-s.Start))
		o := ms(s.Latency() - s.Wait - s.Exec)
		overhead = append(overhead, o)
		wait = append(wait, ms(s.Wait))
		exec = append(exec, ms(s.Exec))
		body += float64(s.Bytes)
		sumLat += ms(s.Latency())
		sumOverhead += o
	}
	if len(lat) == 0 {
		return errors.New("bench: no verified response in the detail phase")
	}
	m["client.samples"] = float64(len(lat))
	m["client.latency_p99_ms"] = Percentile(lat, 99)
	m["client.ttfb_p50_ms"] = Percentile(ttfb, 50)
	m["client.out_mb_s"] = body / 1e6 / elapsed.Seconds()
	m["client.bytes_per_req"] = body / float64(len(lat))
	m["xqserve.http_overhead_p50_ms"] = Percentile(overhead, 50)
	m["xqserve.http_overhead_share"] = sumOverhead / sumLat
	m["service.queue_wait_p50_ms"] = Percentile(wait, 50)
	m["service.queue_wait_p95_ms"] = Percentile(wait, 95)
	m["service.exec_p50_ms"] = Percentile(exec, 50)

	// One client replays the first entries four times, alternately without
	// and with span recording. Per entry, the smaller latency of each kind
	// is kept — the first replay after the two-client phase runs about a
	// tenth slower whatever it records, and outside load comes in bursts —
	// and the difference of the sums is what recording costs. The spans of
	// the repeat are not kept: one request, one span tree.
	plain, traced := make([]time.Duration, entries), make([]time.Duration, entries)
	for _, into := range []*Trace{nil, trace, nil, NewTrace()} {
		latency := plain
		if into != nil {
			latency = traced
		}
		if err := l.replay(ctx, p, entries, into, latency, served); err != nil {
			return err
		}
	}
	var sumPlain, sumTraced time.Duration
	for n := range plain {
		sumPlain += plain[n]
		sumTraced += traced[n]
	}
	m["trace.overhead_pct"] = 100 * (sumTraced.Seconds()/sumPlain.Seconds() - 1)

	m["service.rejected"], err = rejected(l.srv.URL)
	return err
}

// rejected reads the executor's count of requests refused by a full
// admission queue from /stats.
func rejected(baseURL string) (float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(baseURL + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var stats struct {
		Snapshot struct {
			Rejected float64 `json:"rejected"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, fmt.Errorf("bench: decoding /stats: %w", err)
	}
	return stats.Snapshot.Rejected, nil
}
