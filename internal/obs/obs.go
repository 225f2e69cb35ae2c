// Package obs is the serving stack's lightweight observability kit:
// request IDs, timed spans, and a bounded slow-query log. It has no
// exporter and no background goroutines — spans are plain in-memory trees
// a request builds as it flows through the executor, the shard
// coordinator and the engine's gather workers, snapshot at the end into
// the slow-query log or an HTTP response. The zero-instrumentation path
// is a nil *Span, which every producer checks before recording.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a request's execution. Child and attribute
// appends are concurrency-safe — scatter goroutines and morsel workers
// annotate their parent concurrently — but Name and start are fixed at
// creation.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// StartSpan begins a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child begins a child span under s.
func (s *Span) Child(name string) *Span {
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Add appends an already-completed child with an explicit duration, for
// regions timed by the producer itself (a morsel worker's wall time).
func (s *Span) Add(name string, d time.Duration) *Span {
	c := &Span{name: name, start: time.Now().Add(-d), dur: d, ended: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End fixes the span's duration. Idempotent; a second End keeps the first
// duration.
func (s *Span) End() {
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Set annotates the span with a key/value attribute.
func (s *Span) Set(key, value string) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Duration returns the span's fixed duration, or the time elapsed so far
// when it has not ended.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanView is an immutable snapshot of a span tree, JSON-ready for the
// slow-query log and debug endpoints.
type SpanView struct {
	Name       string     `json:"name"`
	DurationMs float64    `json:"duration_ms"`
	Attrs      []Attr     `json:"attrs,omitempty"`
	Children   []SpanView `json:"children,omitempty"`
}

// View snapshots the span tree. Safe to call while producers still append
// below live children; the snapshot is whatever has been recorded so far.
func (s *Span) View() SpanView {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	v := SpanView{
		Name:       s.name,
		DurationMs: float64(dur) / float64(time.Millisecond),
		Attrs:      attrs,
	}
	for _, c := range kids {
		v.Children = append(v.Children, c.View())
	}
	return v
}

type ctxKey struct{}

// ContextWith attaches a span to a context for hand-off across layer
// boundaries (service executor → shard coordinator → engine session).
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the context's span, or nil when the request is not
// traced.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

type reqIDKey struct{}

// ContextWithRequestID attaches the request's identifier to a context, so
// layers below the HTTP handler can name the request in what they report.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the context's request identifier, or "" when the
// caller attached none.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

var reqFallback atomic.Uint64

// NewRequestID returns a 16-hex-character random request identifier,
// falling back to a process-local counter if the random source fails.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", reqFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}
