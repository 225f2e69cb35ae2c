package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed region at a layer boundary. The spans of one request
// share Request; Parent is the ID of the span that caused this one, 0 for
// a root. Times are microseconds since the trace began.
//
// Attributed marks a span whose duration was measured by a separate,
// identical call (or reported by the server in a response header) and
// placed inside its parent, so that the parent's self time is what the
// parent adds on top of it.
type Span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Name       string  `json:"name"`
	Request    string  `json:"request"`
	System     string  `json:"system"`
	Query      string  `json:"query"`
	StartUS    float64 `json:"start_us"`
	EndUS      float64 `json:"end_us"`
	Attributed bool    `json:"attributed,omitempty"`
}

// Trace collects spans in memory; Write stores them when the run ends.
// It is used from one goroutine.
type Trace struct {
	t0    time.Time
	Spans []Span
}

// NewTrace starts a trace at the current time.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Add records a span and returns its ID.
func (t *Trace) Add(parent int, name string, c Cell, request string, start, end time.Time) int {
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, Span{
		ID: id, Parent: parent, Name: name, Request: request,
		System: c.System, Query: c.Label,
		StartUS: us(start.Sub(t.t0)), EndUS: us(end.Sub(t.t0)),
	})
	return id
}

// AddAttributed records a span of duration d from start, marked as
// attributed.
func (t *Trace) AddAttributed(parent int, name string, c Cell, request string, start time.Time, d time.Duration) int {
	id := t.Add(parent, name, c, request, start, start.Add(d))
	t.Spans[id-1].Attributed = true
	return id
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// SelfTimes returns each span's self time in microseconds, by span ID: its
// duration minus the part of its interval that its child spans cover.
// Children that overlap each other are counted once, and the part of a
// child outside its parent's interval is ignored.
func SelfTimes(spans []Span) map[int]float64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, reach := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := k.StartUS, k.EndUS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndUS - s.StartUS - covered
	}
	return self
}

// SelfTimeByName sums self times per span name, in microseconds.
func SelfTimeByName(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// Write stores the trace as JSON: the spans, and ahead of them the self
// time each span name adds up to, the per-layer split of the replayed
// requests.
func (t *Trace) Write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfUS   map[string]float64 `json:"self_time_us_by_name"`
		Spans    []Span             `json:"spans"`
	}{workload, seed, SelfTimeByName(t.Spans), t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
