// Command xqserve exposes the concurrent query service over HTTP: a
// load-once catalog (document + all system architectures + compiled
// benchmark queries) behind a bounded worker-pool executor.
//
// Usage:
//
//	xqserve -addr :8080 -factor 0.01 -workers 8 -queue 64 -degree 8 -timeout 30s
//
// -degree sizes the shared intra-query parallelism pool: each request is
// granted a slice of it, so one idle-server client fans its scans out
// across every core while many concurrent clients each run sequentially.
// -timeout bounds every request with a context deadline; a query that
// exceeds it stops mid-stream (releasing its worker and any partition
// workers) and answers 504 with the elapsed time. -batch sets the workers'
// batch-at-a-time vector width (1 = tuple-at-a-time baseline). -pprof
// exposes net/http/pprof under /debug/pprof/ — off by default — so
// batch-vs-tuple CPU profiles can be captured from the running service.
//
// -shards N partitions the document across N disjoint shards and serves
// /query by scatter-gather: decomposable queries fan out to every shard
// and merge in document order, the rest fall back to a global unsharded
// replica. -shard-retries, -shard-deadline and -shard-policy tune the
// coordinator's robustness (see the /shards endpoint for live counters).
//
// Every /query response carries an X-Request-ID (echoing the caller's, or
// freshly generated), X-Query-Wait, X-Query-Compile (the parse and plan time
// of an ad-hoc text, 0s on a plan-cache hit) and X-Query-Exec, and, when the
// query's compile surfaced diagnostics, an X-Query-Warnings header. -log
// writes one structured access-log line per request; /debug/slowlog keeps
// the -slowlog K slowest requests with their span trees (queue wait, exec,
// per-shard attempts, gather morsels).
//
// Endpoints:
//
//	GET /query?system=D&q=8               numbered query 8 on System D (1-20, hybrids 21-23)
//	GET /query?system=A&q=count(//item)   ad-hoc query text
//	GET /explain?system=D&q=8             JSON: optimized plan + warnings
//	GET /analyze?system=D&q=8             EXPLAIN ANALYZE: plan + runtime counters
//	GET /stats                            executor metrics as JSON
//	GET /metrics                          Prometheus text format metrics
//	GET /shards                           shard topology + fault counters
//	GET /debug/slowlog                    top-K slowest requests + span trees
//	GET /healthz                          readiness + catalog load status
//
// The server binds its listener first and prints the address it actually
// got (so -addr 127.0.0.1:0 is usable), then loads the catalog in the
// background; /healthz answers 503 with {"status":"loading"} until the
// catalog is ready, so drivers and CI wait on readiness instead of
// sleeping. A full admission queue answers 503 (backpressure); closing
// the client connection cancels the query mid-stream and frees its
// worker slot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/xmark"
)

// server holds the service state behind the HTTP handlers. The catalog
// loads asynchronously; cat/ex flip from nil exactly once under mu.
// In sharded mode (-shards > 1) co routes /query through the
// scatter-gather coordinator while cat/ex point at its global unsharded
// replica, so /explain and /stats keep working unchanged.
type server struct {
	factor  float64
	start   time.Time
	timeout time.Duration

	// slow is the bounded top-K slow-query log behind /debug/slowlog;
	// accessLog, when non-nil, gets one structured line per /query
	// request (the -log flag).
	slow      *obs.SlowLog
	accessLog *log.Logger

	mu      sync.RWMutex
	cat     *service.Catalog
	ex      *service.Executor
	co      *shard.Coordinator
	loadErr error
}

// routes builds the server's HTTP mux (factored out so tests can drive
// the handlers through httptest without a listener).
func (s *server) routes(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/shards", s.handleShards)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if pprofOn {
		// Profiling endpoints are opt-in: they expose runtime internals,
		// so the default server surface stays queries-only. With the flag
		// set, batch-vs-tuple CPU and heap profiles can be captured from
		// the running service, e.g.
		//   go tool pprof 'http://localhost:8080/debug/pprof/profile?seconds=10'
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter records the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// WriteString forwards to the wrapped writer's own WriteString, so that
// io.WriteString hands a result body on without a []byte copy of it.
func (sw *statusWriter) WriteString(s string) (int, error) {
	return io.WriteString(sw.ResponseWriter, s)
}

// writeBody writes a query result and its closing newline. Results reach
// hundreds of KB, and fmt would copy one whole into its print buffer first.
func writeBody(w io.Writer, out string) {
	_, _ = io.WriteString(w, out) // a failed write is a gone client
	_, _ = io.WriteString(w, "\n")
}

// ready returns the catalog and executor once the load succeeded. Until
// then it writes the appropriate status — 503 while loading, 500 after a
// failed load — and reports false.
func (s *server) ready(w http.ResponseWriter) (*service.Catalog, *service.Executor, bool) {
	s.mu.RLock()
	cat, ex, loadErr := s.cat, s.ex, s.loadErr
	s.mu.RUnlock()
	switch {
	case loadErr != nil:
		http.Error(w, "catalog load failed: "+loadErr.Error(), http.StatusInternalServerError)
		return nil, nil, false
	case ex == nil:
		http.Error(w, "catalog loading", http.StatusServiceUnavailable)
		return nil, nil, false
	}
	return cat, ex, true
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	factor := flag.Float64("factor", 0.01, "scaling factor of the served document")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	degree := flag.Int("degree", 0, "shared intra-query parallelism pool (0 = GOMAXPROCS, 1 = sequential)")
	batch := flag.Int("batch", 0, "batch-at-a-time vector width on the workers (0 = engine default, 1 = tuple-at-a-time)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline; slow queries answer 504 (0 = none)")
	systems := flag.String("systems", "", "systems to load, e.g. ABD (empty = all seven)")
	shards := flag.Int("shards", 0, "partition the document across N shards and scatter-gather queries (0 or 1 = unsharded)")
	shardRetries := flag.Int("shard-retries", 1, "sharded mode: retries per transiently failed shard sub-query")
	shardDeadline := flag.Duration("shard-deadline", 0, "sharded mode: per-shard sub-query deadline (0 = none)")
	shardPolicy := flag.String("shard-policy", "fail-fast", "sharded mode: degraded-mode policy, fail-fast | partial")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	accessLog := flag.Bool("log", false, "write one structured access-log line per /query request to stderr")
	slowK := flag.Int("slowlog", 32, "slow-query log size: keep the K slowest requests for /debug/slowlog")
	flag.Parse()

	loaded, err := selectSystems(*systems)
	check(err)
	policy := shard.FailFast
	switch *shardPolicy {
	case "fail-fast":
	case "partial":
		policy = shard.PartialResults
	default:
		check(fmt.Errorf("unknown -shard-policy %q (want fail-fast or partial)", *shardPolicy))
	}

	s := &server{factor: *factor, start: time.Now(), timeout: *timeout, slow: obs.NewSlowLog(*slowK)}
	if *accessLog {
		s.accessLog = log.New(os.Stderr, "xqserve: ", log.LstdFlags|log.LUTC)
	}
	srv := &http.Server{Handler: s.routes(*pprofOn)}
	ln, err := net.Listen("tcp", *addr)
	check(err)
	fmt.Printf("xqserve: listening on %s, loading catalog at factor %g...\n", ln.Addr(), *factor)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			check(err)
		}
	}()

	// Load in the background so /healthz can report progress from the
	// first moment; readiness flips atomically when the catalog is up.
	go func() {
		exec := service.Config{Workers: *workers, QueueDepth: *queue, Parallel: *degree, BatchSize: *batch}
		if *shards > 1 {
			scat, err := shard.Load(*factor, *shards, loaded)
			s.mu.Lock()
			defer s.mu.Unlock()
			if err == nil {
				s.co, err = shard.NewCoordinator(scat, shard.Config{
					Exec:          exec,
					ShardDeadline: *shardDeadline,
					Retries:       *shardRetries,
					Policy:        policy,
					Injector:      nil,
				})
			}
			if err != nil {
				s.loadErr = err
				fmt.Fprintln(os.Stderr, "xqserve: sharded catalog load failed:", err)
				return
			}
			s.cat = scat.Global
			s.ex = s.co.Global()
			fmt.Printf("xqserve: ready — %d shards, %d systems, %.1f MB document, loaded in %v (global replica: %s)\n",
				s.co.Shards(), len(scat.Global.Systems()), float64(scat.Global.DocBytes)/1e6, scat.LoadTime, loadPhases(scat.Global))
			return
		}
		cat, err := service.Load(*factor, loaded)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			s.loadErr = err
			fmt.Fprintln(os.Stderr, "xqserve: catalog load failed:", err)
			return
		}
		s.cat = cat
		s.ex = service.NewExecutor(cat, exec)
		fmt.Printf("xqserve: ready — %d systems, %.1f MB document, loaded in %v (%s)\n",
			len(cat.Systems()), float64(cat.DocBytes)/1e6, cat.LoadTime, loadPhases(cat))
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("\nxqserve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	s.mu.RLock()
	ex, co := s.ex, s.co
	s.mu.RUnlock()
	if co != nil {
		// Closes every shard executor and the global replica's (s.ex).
		co.Close()
	} else if ex != nil {
		ex.Close()
	}
}

// loadPhases splits a catalog's load time by layer: generation, the one
// parse, the store builds with plan compilation, and the shared text
// index, which is built alongside the stores and so is part of their time.
func loadPhases(cat *service.Catalog) string {
	stores := cat.LoadTime - cat.GenerateTime - cat.ParseTime
	return fmt.Sprintf("generate %v, parse %v, stores %v, text index %v",
		cat.GenerateTime.Round(time.Millisecond), cat.ParseTime.Round(time.Millisecond),
		stores.Round(time.Millisecond), cat.TextIndexTime.Round(time.Millisecond))
}

// handleHealthz reports readiness and catalog load status: 200 with
// {"status":"ready"} once the catalog is loaded, 503 while loading, 500
// when the load failed. Drivers poll this instead of sleeping.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	cat, co, loadErr := s.cat, s.co, s.loadErr
	s.mu.RUnlock()

	type health struct {
		Status    string   `json:"status"`
		Factor    float64  `json:"factor"`
		UptimeSec float64  `json:"uptime_sec"`
		Shards    int      `json:"shards,omitempty"`
		Systems   []string `json:"systems,omitempty"`
		LoadMs    float64  `json:"load_ms,omitempty"`
		// StoreBytes reports the attributed size of each system's store.
		StoreBytes []service.StoreSize `json:"store_bytes,omitempty"`
		// TextIndexes reports per-system inverted text index status: built
		// or scan-only, and the resident bytes the index costs.
		TextIndexes []service.TextIndexStatus `json:"text_indexes,omitempty"`
		Error       string                    `json:"error,omitempty"`
	}
	h := health{Factor: s.factor, UptimeSec: time.Since(s.start).Seconds()}
	if co != nil {
		h.Shards = co.Shards()
	}
	code := http.StatusOK
	switch {
	case loadErr != nil:
		h.Status = "failed"
		h.Error = loadErr.Error()
		code = http.StatusInternalServerError
	case cat == nil:
		h.Status = "loading"
		code = http.StatusServiceUnavailable
	default:
		h.Status = "ready"
		for _, sys := range cat.Systems() {
			h.Systems = append(h.Systems, string(sys.ID))
		}
		h.LoadMs = float64(cat.LoadTime) / 1e6
		h.StoreBytes = cat.StoreBytes()
		h.TextIndexes = cat.TextIndexes()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	cat, ex, ok := s.ready(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Workers     int                       `json:"workers"`
		QueueCap    int                       `json:"queue_cap"`
		Parallel    int                       `json:"parallel"`
		BatchSize   int                       `json:"batch_size"`
		Factor      float64                   `json:"factor"`
		StoreBytes  []service.StoreSize       `json:"store_bytes"`
		TextIndexes []service.TextIndexStatus `json:"text_indexes"`
		Snapshot    service.Snapshot          `json:"snapshot"`
	}{ex.Workers(), ex.QueueCap(), ex.Parallel(), ex.BatchSize(), cat.Factor, cat.StoreBytes(), cat.TextIndexes(), ex.Metrics().Snapshot()})
}

// parseRequest extracts the system and query (number or ad-hoc text) of a
// /query or /explain call. A number must name a query in the catalog's
// plan cache.
func parseRequest(r *http.Request, cat *service.Catalog) (service.Request, error) {
	sys := r.URL.Query().Get("system")
	q := r.URL.Query().Get("q")
	if sys == "" || q == "" {
		return service.Request{}, errors.New("need system= and q= (a query number or query text)")
	}
	req := service.Request{System: xmark.SystemID(sys)}
	if qid, err := strconv.Atoi(q); err == nil {
		if _, err := cat.QueryText(qid); err != nil {
			ids := cat.QueryIDs()
			return service.Request{}, fmt.Errorf("query number out of range %d-%d", ids[0], ids[len(ids)-1])
		}
		req.QueryID = qid
	} else {
		req.Text = q
	}
	return req, nil
}

// queryLabel names a request for logs and the slow-query log: "Q8" for a
// benchmark query, the text for an ad-hoc one, truncated on a rune
// boundary to at most 57 bytes plus "..." when longer than 60.
func queryLabel(req service.Request) string {
	if req.QueryID != 0 {
		return fmt.Sprintf("Q%d", req.QueryID)
	}
	if len(req.Text) > 60 {
		cut := 57
		for cut > 0 && !utf8.RuneStart(req.Text[cut]) {
			cut--
		}
		return req.Text[:cut] + "..."
	}
	return req.Text
}

// handleQuery serves one /query request. The request context follows the
// client connection, so a dropped client cancels the query. Every request
// gets an ID (the caller's X-Request-ID or a fresh one), echoed back in
// the response and threaded through the span tree: queue wait and exec on
// the executor, per-shard attempts on the coordinator, morsels on the
// engine's gather workers. Completed requests feed the slow-query log;
// with -log set, each request leaves one structured access-log line.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	sw.Header().Set("X-Request-ID", reqID)
	root := obs.StartSpan("request")
	var (
		req                 service.Request
		wait, compile, exec time.Duration
		shardNote           = "-"
	)
	if s.accessLog != nil {
		defer func() {
			s.accessLog.Printf("req=%s system=%s q=%q status=%d wait=%s compile=%s exec=%s shard=%s",
				reqID, req.System, queryLabel(req), sw.status, wait, compile, exec, shardNote)
		}()
	}

	cat, ex, ok := s.ready(sw)
	if !ok {
		return
	}
	var err error
	req, err = parseRequest(r, cat)
	if err != nil {
		http.Error(sw, err.Error(), http.StatusBadRequest)
		return
	}
	root.Set("system", string(req.System))
	root.Set("query", queryLabel(req))

	// The request context follows the client connection; the server-side
	// deadline bounds how long a slow query may pin a worker slot.
	ctx := obs.ContextWithRequestID(obs.ContextWith(r.Context(), root), reqID)
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	start := time.Now()

	s.mu.RLock()
	co := s.co
	s.mu.RUnlock()
	if co != nil {
		// Sharded mode: scatter-gather through the coordinator (the
		// non-decomposable queries fall back to the global replica inside).
		var res shard.Result
		if req.QueryID != 0 {
			res, err = co.Query(ctx, req.System, req.QueryID)
		} else {
			res, err = co.QueryText(ctx, req.System, req.Text)
		}
		if s.writeQueryError(sw, r, ctx, err, start) {
			return
		}
		exec = res.Elapsed
		shardNote = fmt.Sprintf("scattered=%t,merge=%s", res.Scattered, res.Merge)
		if res.Partial {
			shardNote += fmt.Sprintf(",partial=%d", res.Failed)
		}
		sw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		sw.Header().Set("X-Shard-Scattered", strconv.FormatBool(res.Scattered))
		sw.Header().Set("X-Shard-Merge", res.Merge.String())
		if res.Partial {
			sw.Header().Set("X-Shard-Partial", fmt.Sprint(res.Failed))
		}
		// The coordinator compiles on the global replica's catalog, so its
		// compile-time diagnostics apply to every shard's identical plan.
		if req.QueryID != 0 {
			if prep, perr := cat.Prepared(req.System, req.QueryID); perr == nil && len(prep.Diagnostics) > 0 {
				sw.Header().Set("X-Query-Warnings", strings.Join(prep.Diagnostics, "; "))
			}
		}
		root.End()
		s.observeSlow(reqID, req, sw.status, 0, exec, root)
		writeBody(sw, res.Output)
		return
	}

	resp, err := ex.Execute(ctx, req)
	if s.writeQueryError(sw, r, ctx, err, start) {
		return
	}
	wait, compile, exec = resp.Wait, resp.Compile, resp.Exec
	sw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	sw.Header().Set("X-Query-Wait", resp.Wait.String())
	sw.Header().Set("X-Query-Compile", resp.Compile.String())
	sw.Header().Set("X-Query-Exec", resp.Exec.String())
	if len(resp.Warnings) > 0 {
		sw.Header().Set("X-Query-Warnings", strings.Join(resp.Warnings, "; "))
	}
	root.End()
	s.observeSlow(reqID, req, sw.status, wait, exec, root)
	writeBody(sw, resp.Output)
}

// observeSlow offers a completed request to the slow-query log.
func (s *server) observeSlow(reqID string, req service.Request, status int, wait, exec time.Duration, root *obs.Span) {
	s.slow.Observe(obs.SlowLogEntry{
		RequestID: reqID,
		System:    string(req.System),
		Query:     queryLabel(req),
		When:      time.Now().UTC(),
		Status:    status,
		WaitMs:    float64(wait) / float64(time.Millisecond),
		ExecMs:    float64(exec) / float64(time.Millisecond),
		Trace:     root.View(),
	})
}

// writeQueryError maps an execution error to its HTTP answer, reporting
// whether the request is finished. A nil error reports false.
func (s *server) writeQueryError(w http.ResponseWriter, r *http.Request, ctx context.Context, err error, start time.Time) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, service.ErrQueueFull):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil && r.Context().Err() == nil:
		// The server deadline fired while the client was still there:
		// report the timeout with the elapsed time instead of hanging
		// the worker on an unbounded query.
		http.Error(w, fmt.Sprintf("query timed out after %v (limit %v)",
			time.Since(start).Round(time.Millisecond), s.timeout), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client is gone; nothing useful to write.
	case errors.Is(err, service.ErrInternal):
		// A panic the worker recovered: the server's fault, not the query's.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return true
}

// handleShards reports the scatter-gather topology and fault counters;
// 404 when the server runs unsharded.
func (s *server) handleShards(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	co := s.co
	s.mu.RUnlock()
	if co == nil {
		if _, _, ok := s.ready(w); !ok {
			return
		}
		http.Error(w, "sharding disabled (start with -shards N)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(co.Status())
}

// prepFor resolves a request to its compiled plan: the catalog's cached
// Prepared for a benchmark query, a fresh compile for ad-hoc text.
func prepFor(cat *service.Catalog, req service.Request) (*engine.Prepared, error) {
	if req.QueryID != 0 {
		return cat.Prepared(req.System, req.QueryID)
	}
	return cat.PrepareText(req.System, req.Text)
}

// handleExplain renders the optimized plan of a benchmark or ad-hoc query
// on the chosen system as JSON: the plan tree (the rewrite rules that
// fired, the compile-time catalog probes) plus the compile-time warnings.
// Nothing executes.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	cat, _, ok := s.ready(w)
	if !ok {
		return
	}
	req, err := parseRequest(r, cat)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	prep, err := prepFor(cat, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		System   string   `json:"system"`
		Query    string   `json:"query"`
		Plan     string   `json:"plan"`
		Warnings []string `json:"warnings,omitempty"`
	}{string(req.System), queryLabel(req), prep.Explain(), prep.Diagnostics})
}

// handleAnalyze executes the query once with EXPLAIN ANALYZE
// instrumentation and renders the annotated plan: per-operator rows,
// next() calls, batches, selection survival, cumulative time, gather
// fan-out and morsel skew. It runs on its own session outside the worker
// pool — a diagnostic endpoint, not a serving path — and takes optional
// degree= and batch= parameters to analyze a specific execution shape.
func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	cat, _, ok := s.ready(w)
	if !ok {
		return
	}
	req, err := parseRequest(r, cat)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	prep, err := prepFor(cat, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sess := engine.NewSession()
	if d := r.URL.Query().Get("degree"); d != "" {
		if sess.Degree, err = strconv.Atoi(d); err != nil {
			http.Error(w, "bad degree= value", http.StatusBadRequest)
			return
		}
	}
	if b := r.URL.Query().Get("batch"); b != "" {
		if sess.BatchSize, err = strconv.Atoi(b); err != nil {
			http.Error(w, "bad batch= value", http.StatusBadRequest)
			return
		}
	}
	a, err := prep.ExplainAnalyze(io.Discard, sess)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, a.Report)
}

// handleMetrics renders the executor's counters and latency histograms —
// plus the shard coordinator's robustness counters when sharded — in the
// Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cat, ex, ok := s.ready(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ex.Metrics().WriteProm(w)
	cat.WriteProm(w)
	s.mu.RLock()
	co := s.co
	s.mu.RUnlock()
	if co != nil {
		co.WriteProm(w)
	}
}

// handleSlowlog reports the top-K slowest requests with their span trees.
// Served even while the catalog loads — the log is plain memory.
func (s *server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Slowest []obs.SlowLogEntry `json:"slowest"`
	}{s.slow.Top()})
}

// selectSystems parses a string of system letters into system values.
func selectSystems(s string) ([]xmark.System, error) {
	if s == "" {
		return nil, nil
	}
	var out []xmark.System
	for _, r := range s {
		sys, err := xmark.SystemByID(xmark.SystemID(r))
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqserve:", err)
		os.Exit(1)
	}
}
