// Command xbench is the benchmark of xqserve that BENCHMARK.json
// describes. One invocation runs one workload (or all four) either end to
// end with tracing off, or as the traced per-layer run, prints every
// metric by name with its unit, and ends with one JSON result line.
//
//	bash bench/run.sh --workload join-heavy --seed 1 --seconds 15 --trace 0
//	go run -C bench ./cmd/xbench -trace 1          # all workloads, per-layer
//	go run -C bench ./cmd/xbench -selfcheck        # two sets, compared to the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run (empty = all four in turn)")
	seed := flag.Int64("seed", 1, "seed of the request sequence and the ad-hoc texts")
	seconds := flag.Float64("seconds", 30, "measured seconds per end-to-end run, split into 5 rounds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = the traced per-layer run")
	selfcheck := flag.Bool("selfcheck", false, "run two end-to-end sets and fail if a metric differs by more than its bound")
	out := flag.String("out", "", "directory for results, traces and server logs (default bench/out)")
	flag.Parse()

	// An interrupt cancels the run; every path below stops the server it
	// started before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := bench.FindRoot(cwd)
	if err != nil {
		return fail(err)
	}
	spec, err := bench.LoadSpec(root)
	if err != nil {
		return fail(err)
	}
	cfg := bench.Config{Root: root, OutDir: *out, Factor: bench.Factor, Seed: *seed, Seconds: *seconds}
	if cfg.OutDir == "" {
		cfg.OutDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return fail(err)
	}
	workloads := bench.Workloads()
	if *workload != "" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			return fail(err)
		}
		workloads = []bench.Workload{w}
	}
	if cfg.ServerBin, err = bench.BuildServer(ctx, root); err != nil {
		return fail(err)
	}

	if *selfcheck {
		ok, err := bench.SelfCheck(ctx, cfg, spec, workloads, os.Stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	for _, w := range workloads {
		measure, specs := bench.RunEndToEnd, spec.EndToEnd
		if *trace != 0 {
			measure, specs = bench.RunPerLayer, spec.PerLayer
		}
		res, err := measure(ctx, cfg, w)
		if res != nil {
			// A traced run that fails its coverage check still has a result
			// worth keeping.
			if werr := res.Write(cfg.OutDir); werr != nil {
				return fail(werr)
			}
		}
		if err != nil {
			return fail(err)
		}
		if res.Env.Warning != "" {
			fmt.Fprintln(os.Stderr, "xbench: warning:", res.Env.Warning)
		}
		if err := report(os.Stdout, w, cfg, res, specs); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return fail(fmt.Errorf("%s: %d of %d responses failed: %v", w.Name, res.Failed, res.Attempted, res.Failures))
		}
	}
	return 0
}

// report prints every metric of the run by name with its unit, then the
// result object on a line of its own, so that the last line of a
// single-workload run is the result.
func report(out io.Writer, w bench.Workload, cfg bench.Config, res *bench.Result, specs []bench.MetricSpec) error {
	metrics, err := bench.Select(specs, res.Metrics)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s (%s, seed %d): %d attempted, %d failed %v\n", w.Name, res.Mode, cfg.Seed, res.Attempted, res.Failed, res.Failures)
	for _, m := range specs {
		fmt.Fprintf(out, "%-34s %14.4f %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]bench.Value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "xbench:", err)
	return 1
}
