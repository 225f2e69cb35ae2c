package main

import (
	"regexp"
	"strings"
	"testing"
)

// runXmark drives the command in-process and returns its exit status and
// both streams.
func runXmark(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestTable2RendersThreeSystems(t *testing.T) {
	code, out, errs := runXmark("-table2", "-factor", "0.001")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if !strings.Contains(out, "Table 2: Detailed timings of Q1 and Q2 for Systems A, B, C") {
		t.Errorf("no Table 2 header in:\n%s", out)
	}
	for _, sys := range []string{"A", "B", "C"} {
		if !regexp.MustCompile(`(?m)^Q1 +` + sys + ` `).MatchString(out) {
			t.Errorf("no Q1 row for system %s in:\n%s", sys, out)
		}
	}
}

func TestVerifyChecksAll23Queries(t *testing.T) {
	code, out, errs := runXmark("-verify", "-factor", "0.001")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{
		"verifying: all 23 queries on all 7 systems...",
		"OK: every system returned identical results for every query",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestNoArtifactIsUsageError(t *testing.T) {
	code, out, errs := runXmark("-factor", "0.001")
	if code != 2 || out != "" || !strings.Contains(errs, "-table3") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing, the flag list", code, out, errs)
	}
}

// TestRetiredHarnessFlagRejected keeps the pre-bench/ harness modes from
// coming back unnoticed: the flag set is the ten artifact flags, so a
// retired one fails flag parsing.
func TestRetiredHarnessFlagRejected(t *testing.T) {
	code, _, errs := runXmark("-batchbench")
	if code != 2 || !strings.Contains(errs, "flag provided but not defined: -batchbench") {
		t.Errorf("exit %d, stderr %q; want 2 and an undefined-flag error", code, errs)
	}
}
