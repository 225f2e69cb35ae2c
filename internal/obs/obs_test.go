package obs

import (
	"context"
	"testing"
)

func TestContextRoundTrip(t *testing.T) {
	if id := RequestIDFrom(context.Background()); id != "" {
		t.Fatalf("request ID %q from an empty context", id)
	}
	ctx := ContextWithRequestID(context.Background(), "req-42")
	if got := RequestIDFrom(ctx); got != "req-42" {
		t.Fatalf("request ID = %q, want req-42", got)
	}
	// An unrelated value layered on top must not hide the ID.
	type other struct{}
	if got := RequestIDFrom(context.WithValue(ctx, other{}, 1)); got != "req-42" {
		t.Fatalf("request ID under another value = %q, want req-42", got)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == "" || a == b {
		t.Fatalf("ids %q, %q", a, b)
	}
}
