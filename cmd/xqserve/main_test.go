package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/service"
	"repro/internal/xmark"
	"repro/internal/xquery"
)

// typoQuery misspells a step of an absolute path, which the summarized
// System D store diagnoses at compile time (paper §7): the query runs,
// returns empty, and carries a warning naming the typo.
const typoQuery = "count(/site/peeple/person)"

// newTestServer loads a tiny single-system catalog synchronously and
// returns a ready server, bypassing main()'s background load.
func newTestServer(t testing.TB) *server { return newTestServerOf(t, "D") }

// newTestServerOf is newTestServer over the systems ids names, one letter
// each.
func newTestServerOf(t testing.TB, ids string) *server {
	t.Helper()
	var systems []xmark.System
	for _, id := range ids {
		sys, err := xmark.SystemByID(xmark.SystemID(id))
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	cat, err := service.Load(0.001, systems)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{
		factor:  0.001,
		start:   time.Now(),
		timeout: 10 * time.Second,
	}
	s.cat = cat
	s.ex = service.NewExecutor(cat, service.Config{Workers: 2})
	t.Cleanup(s.ex.Close)
	return s
}

func get(t *testing.T, mux *http.ServeMux, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestQueryWarningsAndRequestID pins the HTTP surfacing of compile-time
// diagnostics and request identity: a typo'd path answers 200 with an
// X-Query-Warnings header naming the bad step, a fresh X-Request-ID is
// minted when the caller sends none, and a caller-supplied ID is echoed.
func TestQueryWarningsAndRequestID(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	path := "/query?" + url.Values{"system": {"D"}, "q": {typoQuery}}.Encode()

	rec := get(t, mux, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if w := rec.Header().Get("X-Query-Warnings"); !strings.Contains(w, "peeple") {
		t.Errorf("X-Query-Warnings = %q, want the typo named", w)
	}
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Error("no X-Request-ID minted")
	}

	rec = get(t, mux, path, map[string]string{"X-Request-ID": "caller-7"})
	if id := rec.Header().Get("X-Request-ID"); id != "caller-7" {
		t.Errorf("X-Request-ID = %q, want the caller's echoed", id)
	}

	// A clean benchmark query must carry no warnings header.
	rec = get(t, mux, "/query?system=D&q=8", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("Q8 status %d: %s", rec.Code, rec.Body.String())
	}
	if w := rec.Header().Get("X-Query-Warnings"); w != "" {
		t.Errorf("clean query grew warnings: %q", w)
	}
}

// TestExplainWarningsJSON pins the /explain JSON shape: plan text plus
// the warnings field.
func TestExplainWarningsJSON(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	rec := get(t, mux, "/explain?"+url.Values{"system": {"D"}, "q": {typoQuery}}.Encode(), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		System   string   `json:"system"`
		Plan     string   `json:"plan"`
		Warnings []string `json:"warnings"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if out.System != "D" || out.Plan == "" {
		t.Fatalf("explain = %+v", out)
	}
	if len(out.Warnings) == 0 || !strings.Contains(out.Warnings[0], "peeple") {
		t.Fatalf("warnings = %v, want the typo named", out.Warnings)
	}
}

// TestAnalyzeEndpoint pins /analyze: the annotated plan with runtime
// counters and the execution footer.
func TestAnalyzeEndpoint(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	rec := get(t, mux, "/analyze?system=D&q=8", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "time=") || !strings.Contains(body, "analyze: exec") {
		t.Fatalf("analyze report lacks counters:\n%s", body)
	}
}

// TestMetricsAndSlowlog drives a query through /query and checks it
// lands in the Prometheus scrape and the access log, and that the retired
// slow-query log is no longer served.
func TestMetricsAndSlowlog(t *testing.T) {
	s := newTestServer(t)
	var logBuf bytes.Buffer
	s.accessLog = log.New(&logBuf, "", 0)
	mux := s.routes(false)

	rec := get(t, mux, "/query?system=D&q=1", map[string]string{"X-Request-ID": "trace-me"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	rec = get(t, mux, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	scrape := rec.Body.String()
	for _, w := range []string{
		`xq_requests_total{outcome="completed"} 1`,
		`xq_query_exec_seconds_count{system="D",query="Q1"} 1`,
		"xq_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(scrape, w) {
			t.Errorf("scrape is missing %q", w)
		}
	}

	if rec = get(t, mux, "/debug/slowlog", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/slowlog status %d, want 404", rec.Code)
	}

	line := logBuf.String()
	for _, w := range []string{"req=trace-me", "system=D", `q="Q1"`, "status=200", "exec="} {
		if !strings.Contains(line, w) {
			t.Errorf("access log line missing %q: %q", w, line)
		}
	}
}

// TestQueryBodyBytes pins the bytes of a /query body: the serialized
// result exactly as the engine renders it, then one newline.
func TestQueryBodyBytes(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	for _, qid := range []int{1, 2, 13} { // one line, many lines, nested markup
		prep, err := s.cat.Prepared("D", qid)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := prep.Serialize(&want); err != nil {
			t.Fatal(err)
		}
		rec := get(t, mux, "/query?system=D&q="+strconv.Itoa(qid), nil)
		if rec.Code != http.StatusOK || rec.Body.String() != want.String()+"\n" {
			t.Errorf("Q%d: status %d, body %d bytes ending %q; want the %d result bytes and a newline",
				qid, rec.Code, rec.Body.Len(), rec.Body.String()[max(0, rec.Body.Len()-10):], want.Len())
		}
	}
}

// TestStoreBytesReported pins the store size gauge on all three surfaces:
// /healthz and /stats carry store_bytes per system beside text_indexes,
// and /metrics exposes the same number as xq_store_bytes.
func TestStoreBytesReported(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	inst, err := s.cat.Instance("D")
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Stats.SizeBytes
	if want <= 0 {
		t.Fatalf("store size %d", want)
	}
	for _, path := range []string{"/healthz", "/stats"} {
		var out struct {
			StoreBytes []service.StoreSize `json:"store_bytes"`
		}
		if err := json.Unmarshal(get(t, mux, path, nil).Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(out.StoreBytes) != 1 || out.StoreBytes[0] != (service.StoreSize{System: "D", Bytes: want}) {
			t.Errorf("%s: store_bytes = %+v, want D=%d", path, out.StoreBytes, want)
		}
	}
	if line := fmt.Sprintf("xq_store_bytes{system=\"D\"} %d\n", want); !strings.Contains(get(t, mux, "/metrics", nil).Body.String(), line) {
		t.Errorf("/metrics is missing %q", line)
	}
}

// TestDictionaryReported pins the value dictionary on every surface that
// reports it: /healthz and /stats carry it once, beside text_indexes, with
// the values and bytes of the one dictionary Systems B and C share, and the
// ready line names its build time as a phase of the load.
func TestDictionaryReported(t *testing.T) {
	s := newTestServerOf(t, "BCD")
	mux := s.routes(false)
	want := s.cat.Dictionary()
	if !want.Built || want.Values <= 0 || want.Bytes <= 0 {
		t.Fatalf("catalog dictionary %+v", want)
	}
	for _, path := range []string{"/healthz", "/stats"} {
		body := get(t, mux, path, nil).Body.Bytes()
		var out struct {
			Dictionary service.DictionaryStatus `json:"dictionary"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if out.Dictionary != want {
			t.Errorf("%s: dictionary = %+v, want %+v", path, out.Dictionary, want)
		}
		if n := strings.Count(string(body), `"dictionary"`); n != 1 {
			t.Errorf("%s reports the dictionary %d times", path, n)
		}
	}
	phase := "dictionary " + s.cat.DictionaryTime.Round(time.Millisecond).String() + ","
	if line := loadPhases(s.cat); !strings.Contains(line, phase) {
		t.Errorf("ready line %q lacks %q", line, phase)
	}
	if d := newTestServer(t).cat.Dictionary(); d.Built {
		t.Errorf("a catalog of System D alone reports a dictionary: %+v", d)
	}
}

// TestHybridQueriesByNumber pins the number range of /query and /explain to
// the catalog's plan cache: the hybrid keyword queries (21-23) answer by
// number exactly what their text answers ad hoc, and the first number past
// the cache is a 400 that names the range.
func TestHybridQueriesByNumber(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	for _, q := range xmark.HybridQueries() {
		byNumber := get(t, mux, "/query?system=D&q="+strconv.Itoa(q.ID), nil)
		if byNumber.Code != http.StatusOK {
			t.Fatalf("Q%d by number: status %d: %s", q.ID, byNumber.Code, byNumber.Body.String())
		}
		byText := get(t, mux, "/query?"+url.Values{"system": {"D"}, "q": {q.Text(s.cat.Card)}}.Encode(), nil)
		if byText.Code != http.StatusOK || byText.Body.String() != byNumber.Body.String() {
			t.Errorf("Q%d: by number and by text differ (%d vs %d bytes)",
				q.ID, byNumber.Body.Len(), byText.Body.Len())
		}
		if rec := get(t, mux, "/explain?system=D&q="+strconv.Itoa(q.ID), nil); rec.Code != http.StatusOK {
			t.Errorf("/explain Q%d: status %d", q.ID, rec.Code)
		}
	}
	rec := get(t, mux, "/query?system=D&q=24", nil)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "1-23") {
		t.Errorf("q=24: status %d body %q, want 400 naming 1-23", rec.Code, rec.Body.String())
	}
}

// TestQueryCompileHeader pins X-Query-Compile: the parse and plan time of an
// ad-hoc text, zero on a plan-cache hit, and present in the access log.
func TestQueryCompileHeader(t *testing.T) {
	s := newTestServer(t)
	var logBuf bytes.Buffer
	s.accessLog = log.New(&logBuf, "", 0)
	mux := s.routes(false)

	rec := get(t, mux, "/query?system=D&q=1", nil)
	if d, err := time.ParseDuration(rec.Header().Get("X-Query-Compile")); err != nil || d != 0 {
		t.Errorf("cached plan: X-Query-Compile = %q, want 0s", rec.Header().Get("X-Query-Compile"))
	}
	rec = get(t, mux, "/query?"+url.Values{"system": {"D"}, "q": {"count(//item)"}}.Encode(), nil)
	if d, err := time.ParseDuration(rec.Header().Get("X-Query-Compile")); err != nil || d <= 0 {
		t.Errorf("ad-hoc text: X-Query-Compile = %q, want a positive duration", rec.Header().Get("X-Query-Compile"))
	}
	if line := logBuf.String(); strings.Count(line, "compile=") != 2 {
		t.Errorf("access log lines lack compile=: %q", line)
	}
}

// TestInternalErrorIs500 pins the HTTP mapping of a panic the executor
// recovered: 500, not the 400 of a bad query.
func TestInternalErrorIs500(t *testing.T) {
	s := &server{}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/query", nil)
	err := fmt.Errorf("%w: request %q: boom", service.ErrInternal, "r1")
	if !s.writeQueryError(rec, r, r.Context(), err, time.Now()) || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "r1") {
		t.Errorf("body %q does not name the request", rec.Body.String())
	}
}

// TestDeepQueryIs400 sends a query nested past the parser's depth limit:
// it is a parse error like any other, answered 400 with the limit named,
// and the worker it ran on is free for the next request.
func TestDeepQueryIs400(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	deep := strings.Repeat("<a>{", 40000) + "1" + strings.Repeat("}</a>", 40000)
	rec := get(t, mux, "/query?system=D&q="+url.QueryEscape(deep), nil)
	if want := fmt.Sprintf("limit of %d levels", xquery.MaxDepth); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("status %d, body %.80q; want 400 naming the %s", rec.Code, rec.Body.String(), want)
	}
	if rec := get(t, mux, "/query?system=D&q=1", nil); rec.Code != http.StatusOK {
		t.Errorf("q=1 after the deep query: status %d", rec.Code)
	}
}

// TestDescendantTextOrAttributeIs400 sends the // forms the engine has no
// step for: each is a parse error naming the construct — or, for a
// predicate that is positional only at run time, an evaluation error
// naming it — answered 400 rather than a wrong result with 200.
func TestDescendantTextOrAttributeIs400(t *testing.T) {
	s := newTestServer(t)
	mux := s.routes(false)
	for q, construct := range map[string]string{
		"count(/site//text())":                 "//text()",
		"count(//@id)":                         "//@",
		"count(//item[1])":                     "//item[",
		"let $n := 1 return count(//item[$n])": "//item[",
	} {
		rec := get(t, mux, "/query?"+url.Values{"system": {"D"}, "q": {q}}.Encode(), nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), construct) {
			t.Errorf("%s: status %d, body %.80q; want 400 naming %s", q, rec.Code, rec.Body.String(), construct)
		}
	}
}

// TestQueryLabelCutsOnRuneBoundary pins the truncation of ad-hoc query
// labels (access log, /explain): a multi-byte
// rune straddling the 57-byte cut is dropped whole, never split.
func TestQueryLabelCutsOnRuneBoundary(t *testing.T) {
	pad := strings.Repeat("x", 56)
	for _, c := range []struct {
		name, text, want string
	}{
		{"ascii", strings.Repeat("a", 70), strings.Repeat("a", 57) + "..."},
		{"two-byte rune straddles the cut", pad + "é" + strings.Repeat("y", 10), pad + "..."},
		{"four-byte rune straddles the cut", pad[:55] + "😀" + strings.Repeat("y", 10), pad[:55] + "..."},
		{"rune ends at the cut", pad[:55] + "é" + strings.Repeat("y", 10), pad[:55] + "é..."},
		{"short text kept whole", "count(//item[contains(., \"größe\")])", "count(//item[contains(., \"größe\")])"},
	} {
		got := queryLabel(service.Request{Text: c.text})
		if !utf8.ValidString(got) {
			t.Errorf("%s: label %q is not valid UTF-8", c.name, got)
		}
		if got != c.want {
			t.Errorf("%s: label %q, want %q", c.name, got, c.want)
		}
		if len(c.text) > 60 && !strings.HasSuffix(got, "...") {
			t.Errorf("%s: truncated label %q lacks the ... suffix", c.name, got)
		}
	}
}
