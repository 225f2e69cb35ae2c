// Package repro's root benchmarks regenerate every table and figure of the
// XMark paper (VLDB 2002). One benchmark per artifact:
//
//	BenchmarkFigure3Scaling    - generator scaling (Figure 3)
//	BenchmarkParserScan        - expat tokenization baseline (§7)
//	BenchmarkTable1Bulkload    - bulkload time per system (Table 1)
//	BenchmarkTable2Breakdown   - compile vs execute of Q1/Q2 on A-C (Table 2)
//	BenchmarkTable3Queries     - the reported queries on Systems A-F (Table 3)
//	BenchmarkStringValue       - one Store.StringValue call per store kind
//	BenchmarkFigure4Embedded   - all 20 queries on System G at small scales (Figure 4)
//	BenchmarkQ15Q16Ratio       - the §7 observation that Q16 costs ~8x Q15 on
//	                             relational systems
//
// plus ablation benchmarks for the design choices DESIGN.md calls out.
// The sweep factor defaults to 0.02 (about 2 MB); override with
// XMARK_FACTOR for paper-scale runs.
package repro_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/nodestore"
	"repro/internal/relational"
	"repro/internal/service"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlgen"
)

func benchFactor() float64 {
	if s := os.Getenv("XMARK_FACTOR"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.02
}

var (
	setupOnce sync.Once
	bmBench   *xmark.Benchmark
	bmInst    map[xmark.SystemID]*xmark.Instance
)

func setup(b *testing.B) (*xmark.Benchmark, map[xmark.SystemID]*xmark.Instance) {
	b.Helper()
	setupOnce.Do(func() {
		bmBench = xmark.NewBenchmark(benchFactor())
		bmInst = make(map[xmark.SystemID]*xmark.Instance, 7)
		for _, s := range xmark.Systems() {
			inst, err := s.Load(bmBench.DocText)
			if err != nil {
				panic(err)
			}
			bmInst[s.ID] = inst
		}
	})
	return bmBench, bmInst
}

// BenchmarkFigure3Scaling measures document generation per factor; the
// ns/op across sub-benchmarks shows the paper's linear scaling, and
// bytes/op reports document size.
func BenchmarkFigure3Scaling(b *testing.B) {
	for _, f := range []float64{0.001, 0.005, 0.01, 0.05} {
		f := f
		b.Run(fmt.Sprintf("factor=%g", f), func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				g := xmlgen.New(xmlgen.Options{Factor: f})
				var cw countWriter
				if _, err := g.WriteTo(&cw); err != nil {
					b.Fatal(err)
				}
				size = cw.n
			}
			b.SetBytes(size)
			b.ReportMetric(float64(size), "docbytes")
		})
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkParserScan is the expat baseline: tokenization only.
func BenchmarkParserScan(b *testing.B) {
	bench, _ := setup(b)
	b.SetBytes(int64(len(bench.DocText)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ScanTime(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Bulkload measures parse+build per system (Table 1) and
// reports the resulting database size.
func BenchmarkTable1Bulkload(b *testing.B) {
	bench, _ := setup(b)
	for _, s := range xmark.MassStorageSystems() {
		s := s
		b.Run("System"+string(s.ID), func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				inst, err := s.Load(bench.DocText)
				if err != nil {
					b.Fatal(err)
				}
				size = inst.Stats.SizeBytes
			}
			b.ReportMetric(float64(size), "dbbytes")
		})
	}
}

// BenchmarkTable2Breakdown times Q1 and Q2 on the relational systems and
// reports the compile-time share (Table 2).
func BenchmarkTable2Breakdown(b *testing.B) {
	bench, inst := setup(b)
	for _, qid := range []int{1, 2} {
		for _, sid := range []xmark.SystemID{xmark.SystemA, xmark.SystemB, xmark.SystemC} {
			qid, sid := qid, sid
			b.Run(fmt.Sprintf("Q%d/System%s", qid, sid), func(b *testing.B) {
				var compileShare float64
				for i := 0; i < b.N; i++ {
					res, err := bench.RunQuery(inst[sid], qid)
					if err != nil {
						b.Fatal(err)
					}
					if t := res.Total(); t > 0 {
						compileShare = 100 * float64(res.Compile) / float64(t)
					}
				}
				b.ReportMetric(compileShare, "compile%")
			})
		}
	}
}

// BenchmarkTable3Queries runs the Table 3 query set on Systems A-F.
func BenchmarkTable3Queries(b *testing.B) {
	bench, inst := setup(b)
	for _, qid := range xmark.Table3QueryIDs {
		for _, s := range xmark.MassStorageSystems() {
			qid, sid := qid, s.ID
			b.Run(fmt.Sprintf("Q%d/System%s", qid, sid), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunQuery(inst[sid], qid); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var stringValueSink int

// BenchmarkStringValue is the in-process cost of one Store.StringValue
// call per store kind (edge, path, inline, DOM) on the two mixed-content
// subtrees the full-text queries atomize: item descriptions (Q14, Q21,
// Q22) and mail bodies (Q23). With the text heap it is the store's own
// lookup of the node plus one slice, 0 B/op on every kind.
func BenchmarkStringValue(b *testing.B) {
	_, inst := setup(b)
	for _, sid := range []xmark.SystemID{xmark.SystemA, xmark.SystemB, xmark.SystemC, xmark.SystemD} {
		store := inst[sid].Engine.Store()
		descriptions, _ := store.TagExtent("description", nil)
		mails, _ := store.TagExtent("mail", nil)
		var bodies []tree.NodeID
		for _, m := range mails {
			bodies = store.ChildrenByTag(m, "text", bodies)
		}
		for _, c := range []struct {
			name  string
			nodes []tree.NodeID
		}{{"description", descriptions}, {"mail-text", bodies}} {
			nodes := c.nodes
			b.Run(store.Name()+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stringValueSink += len(store.StringValue(nodes[i%len(nodes)]))
				}
			})
		}
	}
}

var indexSink int

// BenchmarkIndexLookup is one probe of the flat relational index
// (relational.Index) over 200 k rows: a hit in a direct-address directory
// (node ids), a hit in a sorted directory (one key per thousand of the
// span: a binary search), and a miss inside the range of the sorted one.
// Every probe returns a view of the index, 0 B/op.
func BenchmarkIndexLookup(b *testing.B) {
	const rows = 200_000
	tab := relational.NewTable("bench", relational.Schema{
		{Name: "dense", T: relational.Node}, {Name: "sparse", T: relational.Int}})
	for i := int64(0); i < rows; i++ {
		tab.Append(relational.NodeVal(i), relational.IntVal(i*1000))
	}
	dense, sparse := tab.CreateIndex(0), tab.CreateIndex(1)
	for _, c := range []struct {
		name        string
		idx         *relational.Index
		scale, plus int64
	}{{"dense", dense, 1, 0}, {"sorted", sparse, 1000, 0}, {"miss", sparse, 1000, 1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A stride coprime to the row count visits every key, out of order.
				k := int64(i) * 7919 % rows
				indexSink += len(c.idx.LookupInt(k*c.scale + c.plus))
			}
		})
	}
}

// BenchmarkRowOf is the node → row step of the relational stores, through
// the cheapest navigation call that is nothing else: Parent reads one
// column at the row. On the heap (A) the step is an id-index probe, on the
// fragmenting mappings (B, C) two loads from store-wide arrays.
func BenchmarkRowOf(b *testing.B) {
	_, inst := setup(b)
	for _, sid := range []xmark.SystemID{xmark.SystemA, xmark.SystemB, xmark.SystemC} {
		store := inst[sid].Engine.Store()
		nodes := store.Stats().Nodes
		b.Run(store.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexSink += int(store.Parent(tree.NodeID(i * 7919 % nodes)))
			}
		})
	}
}

// BenchmarkFigure4Embedded runs all twenty queries on the embedded System
// G at the paper's Figure 4 scales (factors 0.001 and 0.01).
func BenchmarkFigure4Embedded(b *testing.B) {
	sysG, err := xmark.SystemByID(xmark.SystemG)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []float64{0.001, 0.01} {
		bench := xmark.NewBenchmark(f)
		inst, err := sysG.Load(bench.DocText)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range xmark.Queries() {
			qid := q.ID
			b.Run(fmt.Sprintf("factor=%g/Q%d", f, qid), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunQuery(inst, qid); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkQ15Q16Ratio reproduces the §7 observation that the relational
// systems need roughly 8x longer for Q16 than for Q15 (the ascent and
// selection added to the long path).
func BenchmarkQ15Q16Ratio(b *testing.B) {
	bench, inst := setup(b)
	for _, qid := range []int{15, 16} {
		for _, sid := range []xmark.SystemID{xmark.SystemA, xmark.SystemB, xmark.SystemC} {
			qid, sid := qid, sid
			b.Run(fmt.Sprintf("Q%d/System%s", qid, sid), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunQuery(inst[sid], qid); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationSummary isolates the structural summary: Q6 and Q7 on
// System D (summary) versus System E (tag indexes only) versus System F
// (pure traversal) — the Q6/Q7 discussion of §7.
func BenchmarkAblationSummary(b *testing.B) {
	bench, inst := setup(b)
	for _, qid := range []int{6, 7} {
		for _, sid := range []xmark.SystemID{xmark.SystemD, xmark.SystemE, xmark.SystemF} {
			qid, sid := qid, sid
			b.Run(fmt.Sprintf("Q%d/System%s", qid, sid), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunQuery(inst[sid], qid); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationInlining isolates DTD inlining: Q2 on System C
// (inlined) versus System B (same fragments, no inlining).
func BenchmarkAblationInlining(b *testing.B) {
	bench, inst := setup(b)
	for _, sid := range []xmark.SystemID{xmark.SystemB, xmark.SystemC} {
		sid := sid
		b.Run("Q2/System"+string(sid), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunQuery(inst[sid], 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAttrIndex isolates the attribute value index: Q1 (the
// paper's "table scan or index lookup" baseline) over the same store with
// the index peephole on and off.
func BenchmarkAblationAttrIndex(b *testing.B) {
	bench, _ := setup(b)
	doc, err := tree.Parse(bench.DocText)
	if err != nil {
		b.Fatal(err)
	}
	store := nodestore.NewDOM("dom+attridx", doc,
		nodestore.DOMOptions{Summary: true, TagExtents: true, AttrIndexes: true})
	q1 := bench.QueryText(1)
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"indexlookup", engine.Options{PathExtents: true, AttrIndexes: true}},
		{"tablescan", engine.Options{PathExtents: true}},
	} {
		mode := mode
		b.Run("Q1/"+mode.name, func(b *testing.B) {
			eng := engine.New(store, mode.opts)
			for i := 0; i < b.N; i++ {
				seq, err := eng.Query(q1)
				if err != nil {
					b.Fatal(err)
				}
				if len(seq) != 1 {
					b.Fatal("Q1 result size wrong")
				}
			}
		})
	}
}

var (
	svcOnce sync.Once
	svcCat  *service.Catalog
	svcErr  error
)

func serviceCatalog(b *testing.B) *service.Catalog {
	b.Helper()
	svcOnce.Do(func() {
		svcCat, svcErr = service.Load(benchFactor(), nil)
	})
	if svcErr != nil {
		b.Fatal(svcErr)
	}
	return svcCat
}

// BenchmarkServiceThroughput measures the multi-client axis the service
// layer adds: parallel clients issuing a mixed workload against one
// shared Catalog through the Executor. ns/op is the per-request latency
// under full parallelism; compare sub-benchmarks to see each system's
// aggregate throughput (requests/sec = parallelism / ns/op).
func BenchmarkServiceThroughput(b *testing.B) {
	cat := serviceCatalog(b)
	mix := []int{1, 2, 3, 6, 8, 13, 17, 20}
	for _, sid := range []xmark.SystemID{xmark.SystemA, xmark.SystemD, xmark.SystemF} {
		sid := sid
		b.Run("System"+string(sid), func(b *testing.B) {
			ex := service.NewExecutor(cat, service.Config{QueueDepth: 1024})
			defer ex.Close()
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					qid := mix[i%len(mix)]
					i++
					if _, err := ex.Execute(ctx, service.Request{System: sid, QueryID: qid}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServiceSessionReuse isolates the per-worker Session: the same
// prepared query executed with a kept Session (warm free lists) versus a
// fresh Session per execution. The join build side is memoized on the
// Prepared, so it is built by the first execution of either arm and
// shared by both: the difference is free-list warmth alone.
func BenchmarkServiceSessionReuse(b *testing.B) {
	cat := serviceCatalog(b)
	prep, err := cat.Prepared(xmark.SystemD, 8)
	if err != nil {
		b.Fatal(err)
	}
	drain := func(engine.Item) bool { return true }
	b.Run("Q8/keptSession", func(b *testing.B) {
		sess := engine.NewSession()
		for i := 0; i < b.N; i++ {
			if err := prep.StreamSession(sess, drain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q8/freshSession", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := prep.Stream(drain); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHashJoin isolates the value-join strategy: Q8 over the
// same main-memory store with the hash-join rewrite on and off (nested
// loops).
func BenchmarkAblationHashJoin(b *testing.B) {
	bench, _ := setup(b)
	doc, err := tree.Parse(bench.DocText)
	if err != nil {
		b.Fatal(err)
	}
	store := nodestore.NewDOM("dom+extents", doc, nodestore.DOMOptions{TagExtents: true})
	q8 := bench.QueryText(8)
	for _, mode := range []struct {
		name string
		opts engine.Options
	}{
		{"hashjoin", engine.Options{HashJoins: true}},
		{"nestedloop", engine.Options{}},
	} {
		mode := mode
		b.Run("Q8/"+mode.name, func(b *testing.B) {
			eng := engine.New(store, mode.opts)
			for i := 0; i < b.N; i++ {
				seq, err := eng.Query(q8)
				if err != nil {
					b.Fatal(err)
				}
				_ = engine.SerializeString(store, seq)
			}
		})
	}
}
