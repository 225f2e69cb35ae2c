package main

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

// FuzzParseRequest feeds arbitrary /query strings to parseRequest and
// compiles what it accepts, the path every network request takes before a
// worker runs it. Neither step may panic, and an accepted request must say
// what the query string said: the system as given, and either a benchmark
// query number in range or the text itself. The corpus is seeded with the
// benchmark's query texts; inputs it once failed on live in
// testdata/fuzz/FuzzParseRequest, where plain go test replays them.
func FuzzParseRequest(f *testing.F) {
	card := xmlgen.Cardinalities{People: 100}
	for _, q := range xmark.AllQueries() {
		f.Add(url.Values{"system": {"D"}, "q": {q.Text(card)}}.Encode())
	}
	for _, raw := range []string{"system=D&q=8", "system=A&q=24", "q=1", "system=D&q=%zz", "system=D&q=-0"} {
		f.Add(raw)
	}
	cat := newTestServer(f).cat
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		req, err := parseRequest(r, cat)
		if err != nil {
			return
		}
		sys, q := r.URL.Query().Get("system"), r.URL.Query().Get("q")
		if q == "" || string(req.System) != sys {
			t.Fatalf("accepted %q as system %q", raw, req.System)
		}
		if n, err := strconv.Atoi(q); err == nil {
			if req.QueryID != n || req.Text != "" {
				t.Fatalf("q=%s became query %d, text %q", q, req.QueryID, req.Text)
			}
			if _, err := cat.QueryText(n); err != nil {
				t.Fatalf("accepted query number %d: %v", n, err)
			}
		} else if req.QueryID != 0 || req.Text != q {
			t.Fatalf("q=%q became query %d, text %q", q, req.QueryID, req.Text)
		}
		if prep, err := prepFor(cat, req); err == nil {
			_ = prep.Explain()
		}
	})
}
