// Command xquery evaluates an ad-hoc query of the supported XQuery subset
// against an XML document (a file, or a freshly generated benchmark
// document) on a chosen system architecture.
//
// Usage:
//
//	xquery -factor 0.01 'count(//item)'
//	xquery -doc auction.xml -system C 'for $p in /site/people/person return $p/name/text()'
//	xquery -factor 0.01 -f query.xq -time
//	echo 'count(//item)' | xquery -               # query from stdin
//	xquery -system B -n 20 -explain               # optimized plan, no execution
//	xquery -system B -n 20 -analyze               # EXPLAIN ANALYZE: plan + runtime counters
//	xquery -factor 0.1 -n 14 -degree 8 -time      # morsel-parallel scan
//	xquery -system B -n 20 -batch 1 -time         # strict tuple-at-a-time baseline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

func main() {
	docPath := flag.String("doc", "", "XML document to query (default: generate one)")
	factor := flag.Float64("factor", 0.01, "scaling factor when generating")
	system := flag.String("system", "D", "system architecture A-G")
	queryFile := flag.String("q", "", "read the query from a file ('-' for stdin)")
	queryFileF := flag.String("f", "", "read the query from a file ('-' for stdin); alias of -q")
	benchQuery := flag.Int("n", 0, "run benchmark query number 1-23 instead of an inline query")
	explain := flag.Bool("explain", false, "print the optimized plan and fired rules instead of executing")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute once and print the plan annotated with per-operator runtime counters")
	timing := flag.Bool("time", false, "print load, compile and execution times")
	degree := flag.Int("degree", 1, "intra-query parallelism budget (1 = sequential; output is byte-identical at any degree)")
	batch := flag.Int("batch", 0, "batch-at-a-time vector width (0 = engine default, 1 = tuple-at-a-time; output is byte-identical at any width)")
	flag.Parse()
	if *queryFile == "" {
		*queryFile = *queryFileF
	}

	var docText []byte
	card := xmlgen.Scale(*factor)
	if *docPath != "" {
		var err error
		docText, err = os.ReadFile(*docPath)
		check(err)
	} else {
		bench := xmark.NewBenchmark(*factor)
		docText = bench.DocText
		card = bench.Card
	}

	var src string
	switch {
	case *benchQuery != 0:
		var err error
		src, err = benchQueryText(*benchQuery, card)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xquery:", err)
			os.Exit(2)
		}
	case *queryFile != "":
		src = readQuery(*queryFile)
	case flag.NArg() == 1:
		if flag.Arg(0) == "-" {
			src = readQuery("-")
		} else {
			src = flag.Arg(0)
		}
	default:
		fmt.Fprintln(os.Stderr, "xquery: provide a query argument ('-' for stdin), -f/-q file, or -n query-number")
		os.Exit(2)
	}

	sys, err := xmark.SystemByID(xmark.SystemID(*system))
	check(err)
	inst, err := sys.Load(docText)
	check(err)

	if *explain {
		prep, err := inst.Engine.Prepare(src)
		check(err)
		fmt.Printf("system %s (%s)\n", sys.ID, sys.Architecture)
		fmt.Print(prep.Explain())
		for _, d := range prep.Diagnostics {
			fmt.Println("warning:", d)
		}
		return
	}

	if *analyze {
		// EXPLAIN ANALYZE: run once with instrumentation, discard the
		// serialized result (byte-identical to a plain run anyway), print
		// the plan annotated with the measured per-operator counters.
		prep, err := inst.Engine.Prepare(src)
		check(err)
		sess := engine.NewSession()
		sess.Degree = *degree
		sess.BatchSize = *batch
		a, err := prep.ExplainAnalyze(io.Discard, sess)
		check(err)
		fmt.Printf("system %s (%s)\n", sys.ID, sys.Architecture)
		fmt.Print(a.Report)
		for _, d := range prep.Diagnostics {
			fmt.Println("warning:", d)
		}
		return
	}

	res, err := inst.RunOpts(0, src, *degree, *batch)
	check(err)

	fmt.Println(res.Output)
	if *timing {
		fmt.Fprintf(os.Stderr, "system %s: load %v, compile %v, execute %v, %d result bytes\n",
			sys.ID, inst.LoadTime, res.Compile, res.Execute, len(res.Output))
	}
}

// benchQueryText resolves -n to the source of benchmark query n for a
// document with the given cardinalities. A number outside the catalog is
// an error, so a mistyped -n can neither fall through to another query
// source nor be silently ignored.
func benchQueryText(n int, card xmlgen.Cardinalities) (string, error) {
	if last := len(xmark.AllQueries()); n < 1 || n > last {
		return "", fmt.Errorf("-n %d: benchmark queries are numbered 1-%d", n, last)
	}
	return xmark.Query(n).Text(card), nil
}

// readQuery loads the query text from a file, or from stdin when path is
// "-", so service smoke tests can pipe queries in.
func readQuery(path string) string {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		check(err)
		return string(b)
	}
	b, err := os.ReadFile(path)
	check(err)
	return string(b)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xquery:", err)
		os.Exit(1)
	}
}
