package main

import (
	"strings"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

// TestBenchQueryText pins -n resolution: every catalog number, the hybrid
// extensions included, resolves to its query text, and a number outside
// the catalog is an error naming the valid range instead of falling
// through to another query source.
func TestBenchQueryText(t *testing.T) {
	card := xmlgen.Scale(0.01)
	for _, tc := range []struct {
		n       int
		wantErr bool
	}{
		{1, false}, {20, false}, {22, false}, {23, false},
		{24, true}, {-1, true},
	} {
		got, err := benchQueryText(tc.n, card)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "1-23") {
				t.Errorf("-n %d: err = %v, want an error naming the range 1-23", tc.n, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-n %d: %v", tc.n, err)
		} else if want := xmark.Query(tc.n).Text(card); got != want {
			t.Errorf("-n %d resolved to %q, want %q", tc.n, got, want)
		}
	}
}
