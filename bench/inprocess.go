package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/nodestore"
	"repro/internal/service"
	"repro/internal/xmark"
	"repro/internal/xquery"
)

// inProcess replays the first entries of a sequence on one goroutine
// against an in-process catalog of the workload's systems, timing the
// calls into each layer. It passes over the entries, one call per entry and
// pass, so that — as in the server — every query runs after a different one
// and none finds its own data warm in the caches:
//
//  1. xquery.Parse of the text, then the compile (Catalog.PrepareText) —
//     or the plan-cache lookup (Catalog.Prepared) for a query sent by number;
//  2. Prepared.StreamSession with the items discarded: execution alone
//     (four times, keeping the smallest time);
//  3. the engine as xqserve's executor drives it: Prepared.StreamSession
//     into an engine.ItemWriter over a reused buffer, with allocation
//     counts from runtime.MemStats around it;
//  4. Prepared.SerializeSession: execution plus the engine's batch
//     serializer, which the serving path does not use today;
//  5. Executor.Execute: the whole service path;
//  6. step 3 twice more, timing only, so that an entry's smallest time as
//     served is the smallest of four, as for execution alone and as the
//     server's traced replays give.
//
// Each pass runs the query again, so the spans nest by attribution: the
// separately measured parse sits inside the compile span and the
// separately measured execution inside the serialize span, which makes a
// span's self time what its layer adds.
type inProcess struct {
	cat     *service.Catalog
	ex      *service.Executor
	entries []entry
	// warm is the session of the plan-cache queries, kept across entries
	// like an executor worker's; an ad-hoc query gets a throwaway one.
	warm *engine.Session
	buf  bytes.Buffer
}

// entry is one replayed sequence entry.
type entry struct {
	cell  Cell
	id    string
	req   service.Request
	prep  *engine.Prepared
	store nodestore.Store
	// parse, compile and exec are the times of passes 1 and 2; served is
	// the smallest engine time as served (passes 3 and 5 and the two
	// timing-only passes after them).
	parse, compile, exec, served time.Duration
}

func (e *entry) failed(what string, err error) error {
	return fmt.Errorf("bench: %s of %s on %s: %w", what, e.cell.Label, e.cell.System, err)
}

// loadInProcess bulkloads the systems the cells use from the oracle's
// document and starts an executor with xqserve's default sizing.
func loadInProcess(cfg Config, p *prepared, entries int) (*inProcess, error) {
	var systems []xmark.System
	used := map[string]bool{}
	for _, c := range p.cells {
		if !used[c.System] {
			used[c.System] = true
			sys, err := xmark.SystemByID(xmark.SystemID(c.System))
			if err != nil {
				return nil, err
			}
			systems = append(systems, sys)
		}
	}
	cat, err := service.LoadDoc(p.oracle.Bench.DocText, p.oracle.Bench.Card, cfg.Factor, systems)
	if err != nil {
		return nil, err
	}
	ip := &inProcess{cat: cat, ex: service.NewExecutor(cat, service.Config{}), entries: make([]entry, entries), warm: engine.NewSession()}
	for n := range ip.entries {
		e := &ip.entries[n]
		e.cell = p.cells[p.seq[n%len(p.seq)]]
		e.id = fmt.Sprintf("inproc-%d", n)
		e.req = service.Request{System: xmark.SystemID(e.cell.System), QueryID: e.cell.QueryID, Text: e.cell.Text}
		inst, err := cat.Instance(e.req.System)
		if err != nil {
			ip.close()
			return nil, err
		}
		e.store = inst.Engine.Store()
	}
	return ip, nil
}

func (ip *inProcess) close() { ip.ex.Close() }

// session returns the session an executor worker would run the entry on.
// A lone request is granted the whole parallelism pool, as the requests of
// the one-client HTTP replay were.
func (ip *inProcess) session(e *entry) *engine.Session {
	sess := ip.warm
	if e.cell.QueryID == 0 {
		sess = engine.NewSession()
	}
	sess.Degree = runtime.GOMAXPROCS(0)
	return sess
}

// asServed runs the entry the way service.Executor.run does and returns
// when it started and ended.
func (ip *inProcess) asServed(e *entry) (start, end time.Time, err error) {
	sess := ip.session(e)
	ip.buf.Reset()
	start = time.Now()
	iw := engine.NewItemWriter(&ip.buf, e.store)
	err = e.prep.StreamSession(sess, func(it engine.Item) bool { return iw.WriteItem(it) == nil })
	end = time.Now()
	sess.Reset()
	if err == nil {
		err = iw.Err()
	}
	if err != nil {
		return start, end, e.failed("execution with serialization", err)
	}
	if d := end.Sub(start); e.served == 0 || d < e.served {
		e.served = d
	}
	return start, end, nil
}

// servedTotal sums the smallest as-served engine time of every entry.
func (ip *inProcess) servedTotal() time.Duration {
	var total time.Duration
	for n := range ip.entries {
		total += ip.entries[n].served
	}
	return total
}

// measure makes the five passes, records their spans and sets the
// per-layer metrics they yield.
func (ip *inProcess) measure(ctx context.Context, trace *Trace, m map[string]float64) error {
	var parseUS, compileUS []float64
	var sumCompile time.Duration
	for n := range ip.entries {
		e := &ip.entries[n]
		var err error
		if e.cell.QueryID != 0 {
			start := time.Now()
			e.prep, err = ip.cat.Prepared(e.req.System, e.cell.QueryID)
			trace.Add(0, "service.plan_cache", e.cell, e.id, start, time.Now())
			if err != nil {
				return e.failed("plan-cache lookup", err)
			}
			continue
		}
		start := time.Now()
		_, err = xquery.Parse(e.cell.Text)
		e.parse = time.Since(start)
		if err != nil {
			return e.failed("parse", err)
		}
		start = time.Now()
		e.prep, err = ip.cat.PrepareText(e.req.System, e.cell.Text)
		end := time.Now()
		if err != nil {
			return e.failed("compile", err)
		}
		e.compile = end.Sub(start)
		span := trace.Add(0, "plan.compile", e.cell, e.id, start, end)
		trace.AddAttributed(span, "xquery.parse", e.cell, e.id, start, e.parse)
		parseUS = append(parseUS, us(e.parse))
		compileUS = append(compileUS, us(e.compile-e.parse))
		sumCompile += e.compile
	}

	// Execution alone, four times, keeping each entry's smallest time: the
	// first pass after the bulkload runs on a cold heap, and the
	// serialization share below is the small difference of two large times,
	// so both are the smallest of as many tries.
	for pass := 0; pass < 4; pass++ {
		for n := range ip.entries {
			e := &ip.entries[n]
			sess := ip.session(e)
			start := time.Now()
			err := e.prep.StreamSession(sess, func(engine.Item) bool { return true })
			d := time.Since(start)
			sess.Reset()
			if err != nil {
				return e.failed("execution", err)
			}
			if pass == 0 || d < e.exec {
				e.exec = d
			}
		}
	}
	var execMS []float64
	var sumExec time.Duration
	execBySystem := map[string][]float64{}
	for n := range ip.entries {
		e := &ip.entries[n]
		execMS = append(execMS, ms(e.exec))
		execBySystem[e.cell.System] = append(execBySystem[e.cell.System], ms(e.exec))
		sumExec += e.exec
	}

	var (
		serMS                         []float64
		sumServed                     time.Duration
		outBytes, mallocs, allocBytes float64
		before, after                 runtime.MemStats
	)
	for n := range ip.entries {
		e := &ip.entries[n]
		runtime.ReadMemStats(&before)
		start, end, err := ip.asServed(e)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		total, exec := end.Sub(start), e.exec
		if exec > total {
			exec = total
		}
		span := trace.Add(0, "engine.serialize", e.cell, e.id, start, end)
		trace.AddAttributed(span, "engine.execute", e.cell, e.id, start, exec)
		serMS = append(serMS, ms(total-exec))
		sumServed += total
		outBytes += float64(ip.buf.Len())
		mallocs += float64(after.Mallocs - before.Mallocs)
		allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	}

	var batchSerMS []float64
	for n := range ip.entries {
		e := &ip.entries[n]
		sess := ip.session(e)
		start := time.Now()
		err := e.prep.SerializeSession(io.Discard, sess)
		total := time.Since(start)
		sess.Reset()
		if err != nil {
			return e.failed("SerializeSession", err)
		}
		batchSerMS = append(batchSerMS, math.Max(0, ms(total-e.exec)))
	}

	var overheadUS []float64
	for n := range ip.entries {
		e := &ip.entries[n]
		start := time.Now()
		resp, err := ip.ex.Execute(ctx, e.req)
		end := time.Now()
		if err != nil {
			return e.failed("Executor.Execute", err)
		}
		// Execute compiles an ad-hoc text before its Exec clock starts, so
		// the compile measured above is taken out of the service's own share.
		span := trace.Add(0, "service.execute", e.cell, e.id, start, end)
		trace.AddAttributed(span, "service.queue", e.cell, e.id, start, resp.Wait)
		trace.AddAttributed(span, "service.prepare", e.cell, e.id, start.Add(resp.Wait), e.compile)
		trace.AddAttributed(span, "service.exec", e.cell, e.id, end.Add(-resp.Exec), resp.Exec)
		overheadUS = append(overheadUS, math.Max(0, us(end.Sub(start)-resp.Exec-e.compile)))
		if resp.Exec < e.served {
			e.served = resp.Exec
		}
	}

	// Two more passes as served, for each entry's smallest time only: four
	// in all, as many as the server's traced replays give.
	for pass := 0; pass < 2; pass++ {
		for n := range ip.entries {
			if _, _, err := ip.asServed(&ip.entries[n]); err != nil {
				return err
			}
		}
	}

	// Execution and execution-with-serialization come from different
	// passes, so one entry's difference can be negative; the sums (of each
	// entry's smallest time) are subtracted whole, because clamping entry by
	// entry would add the noise of a long join to its few hundred
	// microseconds of serialization.
	sumServed = ip.servedTotal()
	sumSer := sumServed - sumExec
	if sumSer < 0 {
		sumSer = 0
	}
	entries := float64(len(ip.entries))
	m["xquery.parse_us_p50"] = Percentile(parseUS, 50)
	m["plan.compile_us_p50"] = Percentile(compileUS, 50)
	m["plan.compile_share"] = sumCompile.Seconds() / (sumCompile + sumServed).Seconds()
	m["engine.execute_ms_p50"] = Percentile(execMS, 50)
	m["engine.serialize_ms_p50"] = Percentile(serMS, 50)
	m["engine.serialize_mb_s"] = 0
	if sumSer > 0 {
		m["engine.serialize_mb_s"] = outBytes / 1e6 / sumSer.Seconds()
	}
	m["engine.serialize_share"] = sumSer.Seconds() / sumServed.Seconds()
	m["engine.serialize_session_ms_p50"] = Percentile(batchSerMS, 50)
	m["engine.allocs_per_req"] = mallocs / entries
	m["engine.alloc_kb_per_req"] = allocBytes / 1e3 / entries
	for _, sys := range servedSystems {
		m["engine.exec_ms_p50."+string(sys)] = Percentile(execBySystem[string(sys)], 50)
	}
	m["service.overhead_us_p50"] = Percentile(overheadUS, 50)
	return nil
}
