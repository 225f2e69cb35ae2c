// Package obs holds the serving stack's request identifiers: a fresh ID
// for a request that brought none, and the context hand-off that lets the
// layers below the HTTP handler name the request in what they report (a
// worker's recovered panic, the access log).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

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
