// Command xmark runs the benchmark evaluation and regenerates the paper's
// result artifacts: Table 1 (bulkload), Table 2 (compile/execute split),
// Table 3 (query runtimes on Systems A-F), Figure 3 (generator scaling)
// and Figure 4 (embedded System G at small scales). Everything goes to
// stdout; speed over time is measured by bench/ (see bench/README.md).
//
// Usage:
//
//	xmark -all                   # everything at the default factor
//	xmark -table3 -factor 0.05   # one artifact at a chosen scale
//	xmark -verify                # run all 23 queries on all 7 systems and
//	                             # check the results agree
//	xmark -scan                  # parser-only scan of the document
//	xmark -inspect               # structural profile of the document
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/xmark"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in: it returns the
// exit status — 0 on success, 1 when an artifact fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	factor := fs.Float64("factor", 0.05, "scaling factor for the table experiments")
	all := fs.Bool("all", false, "run every artifact")
	t1 := fs.Bool("table1", false, "bulkload times and database sizes (Systems A-F)")
	t2 := fs.Bool("table2", false, "compile/execute breakdown of Q1, Q2 (Systems A-C)")
	t3 := fs.Bool("table3", false, "query runtimes (Systems A-F)")
	f3 := fs.Bool("figure3", false, "generator scaling table")
	f4 := fs.Bool("figure4", false, "embedded System G at factors 0.001 and 0.01")
	verify := fs.Bool("verify", false, "cross-check all 23 queries across all 7 systems")
	scan := fs.Bool("scan", false, "parser-only scan time of the document (expat baseline)")
	inspect := fs.Bool("inspect", false, "structural profile of the document (§4 characteristics)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *all {
		*t1, *t2, *t3, *f3, *f4, *verify, *scan = true, true, true, true, true, true, true
	}
	if !(*t1 || *t2 || *t3 || *f3 || *f4 || *verify || *scan || *inspect) {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xmark:", err)
		return 1
	}

	var bench *xmark.Benchmark
	need := func() *xmark.Benchmark {
		if bench == nil {
			fmt.Fprintf(stdout, "generating document at factor %g...\n", *factor)
			bench = xmark.NewBenchmark(*factor)
			fmt.Fprintf(stdout, "document: %.1f MB, generated in %v\n\n", float64(len(bench.DocText))/1e6, bench.GenTime)
		}
		return bench
	}

	if *f3 {
		rows := xmark.RunFigure3([]float64{0.001, 0.005, 0.01, 0.05, 0.1})
		xmark.RenderFigure3(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if *scan {
		b := need()
		d, err := b.ScanTime()
		if err != nil {
			return fail(err)
		}
		mbs := float64(len(b.DocText)) / 1e6 / d.Seconds()
		fmt.Fprintf(stdout, "Parser scan (expat baseline): %v for %.1f MB (%.1f MB/s)\n\n",
			d, float64(len(b.DocText))/1e6, mbs)
	}
	if *t1 {
		rows, err := need().RunTable1()
		if err != nil {
			return fail(err)
		}
		xmark.RenderTable1(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if *t2 {
		rows, err := need().RunTable2(3)
		if err != nil {
			return fail(err)
		}
		xmark.RenderTable2(stdout, rows)
		fmt.Fprintln(stdout)
	}
	if *t3 {
		cells, err := need().RunTable3()
		if err != nil {
			return fail(err)
		}
		xmark.RenderTable3(stdout, cells)
		fmt.Fprintln(stdout)
	}
	if *f4 {
		points, err := xmark.RunFigure4([]float64{0.001, 0.01})
		if err != nil {
			return fail(err)
		}
		xmark.RenderFigure4(stdout, points)
		fmt.Fprintln(stdout)
	}
	if *inspect {
		p, err := xmark.Profile(need().DocText)
		if err != nil {
			return fail(err)
		}
		p.Render(stdout, 20)
		fmt.Fprintln(stdout)
	}
	if *verify {
		b := need()
		fmt.Fprintf(stdout, "verifying: all %d queries on all 7 systems...\n", len(xmark.AllQueries()))
		instances, err := b.LoadAll(xmark.Systems())
		if err != nil {
			return fail(err)
		}
		if err := b.VerifyAll(instances); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "OK: every system returned identical results for every query")
	}
	return 0
}
