package bench

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke builds xqserve and runs one workload both ways on a tiny
// document with 0.5 s rounds: every response must verify, every metric
// BENCHMARK.json names must be measured, and the trace must be written.
func TestSmoke(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, spec.Workloads[i].Name, w.Name)
		}
	}
	ctx := context.Background()
	bin, err := BuildServer(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Root: root, OutDir: t.TempDir(), ServerBin: bin, Factor: 0.005, Seed: 1, Seconds: 2.5}
	w, err := WorkloadByName("adhoc-fulltext")
	if err != nil {
		t.Fatal(err)
	}

	check := func(res *Result, specs []MetricSpec) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", res.Mode, res.Attempted, res.Failed, res.Failures)
		}
		values, err := Select(specs, res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range specs {
			if values[m.Name].Unit != m.Unit {
				t.Errorf("%s is printed in %q, BENCHMARK.json says %q", m.Name, values[m.Name].Unit, m.Unit)
			}
		}
		if res.Claim != nil {
			t.Errorf("%s: the benchmark claims %q", res.Mode, *res.Claim)
		}
	}

	res, err := RunEndToEnd(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	check(res, spec.EndToEnd)
	for _, m := range spec.EndToEnd {
		if res.Metrics[m.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want above 0", m.Name, res.Metrics[m.Name])
		}
	}
	if n := len(res.RoundValues["qps"]); n != Rounds {
		t.Errorf("%d per-round qps values, want %d", n, Rounds)
	}

	// On a document this small the queries take microseconds and the
	// coverage band is not meaningful; everything else is.
	res, err = RunPerLayer(ctx, cfg, w)
	if err != nil && !errors.Is(err, ErrCoverage) {
		t.Fatal(err)
	}
	check(res, spec.PerLayer)
	if res.Metrics["plan.compile_share"] <= 0 {
		t.Errorf("plan.compile_share = %v on the ad-hoc workload, want above 0", res.Metrics["plan.compile_share"])
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
		t.Error(err)
	}
}
