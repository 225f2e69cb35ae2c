package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/nodestore"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/tree"
	"repro/internal/words"
	"repro/internal/xmark"
)

// servedSystems are the systems the serving workloads use; System G
// re-parses the document for every query and is left out.
const servedSystems = "ABCDEF"

// probeLayers measures the layers no workload isolates, the same way on
// every workload: the generator and the two parsers over the document,
// bulkload time and size and a fixed navigation script per store, plan
// compilation of all twenty queries, keyword search by index and by scan,
// and the shard tier.
func probeLayers(ctx context.Context, cfg Config, o *Oracle, m map[string]float64) error {
	doc := o.Bench.DocText
	docMB := float64(len(doc)) / 1e6
	m["xmlgen.generate_mb_s"] = docMB / o.Bench.GenTime.Seconds()
	scan, err := o.Bench.ScanTime()
	if err != nil {
		return err
	}
	m["saxparse.scan_mb_s"] = docMB / scan.Seconds()
	start := time.Now()
	if _, err := tree.Parse(doc); err != nil {
		return err
	}
	m["tree.parse_mb_s"] = docMB / time.Since(start).Seconds()

	// Q14 at four needle selectivities: the benchmark's own "gold" and the
	// vocabulary words of a frequent, a middling and a rare rank.
	var needles []string
	for _, word := range []string{"gold", words.WordAt(2), words.WordAt(257), words.WordAt(4099)} {
		needles = append(needles, strings.ReplaceAll(o.Bench.QueryText(14), `"gold"`, `"`+word+`"`))
	}
	var indexed, builds []float64
	for _, id := range servedSystems {
		inst := o.F
		if xmark.SystemID(id) != xmark.SystemF {
			sys, err := xmark.SystemByID(xmark.SystemID(id))
			if err != nil {
				return err
			}
			// One system at a time, so that each load is timed alone and
			// only one store besides the reference is resident.
			if inst, err = sys.Load(doc); err != nil {
				return err
			}
		}
		s := string(id)
		m["store.load_ms."+s] = ms(inst.LoadTime)
		m["store.bytes_per_doc_byte."+s] = float64(inst.Stats.SizeBytes) / float64(len(doc))
		m["store.nav_mops_s."+s] = navigate(inst.Engine.Store())

		keyword, err := keywordSearch(inst, needles)
		if err != nil {
			return err
		}
		info, built := nodestore.TextIndexInfo{}, false
		if ts, ok := inst.Engine.Store().(nodestore.TextSearcher); ok {
			info, built = ts.TextIndexInfo()
		}
		if built {
			indexed = append(indexed, keyword...)
			builds = append(builds, ms(info.BuildTime))
			m["fulltext.bytes_per_doc_byte"] = float64(info.Bytes) / float64(len(doc))
		} else {
			m["fulltext.scan_exec_ms_p50"] = Percentile(keyword, 50)
		}

		// System D consults its structural summary while compiling, so its
		// compile times are the ones metadata access shows in.
		if xmark.SystemID(id) == xmark.SystemD {
			total := time.Duration(0)
			for qid := 1; qid <= 20; qid++ {
				prep, err := inst.Engine.Prepare(o.Bench.QueryText(qid))
				if err != nil {
					return err
				}
				total += prep.CompileTime
			}
			m["plan.compile_all_ms"] = ms(total)
		}
	}
	m["fulltext.exec_ms_p50"] = Percentile(indexed, 50)
	m["fulltext.build_ms"] = Median(builds)
	return probeShards(ctx, cfg, m)
}

// navigate runs a fixed script over the base Store interface only — all
// items, then per item its name, description and id, and the id looked up
// again by value — until 200 ms have passed, and returns millions of
// interface calls per second.
func navigate(s nodestore.Store) float64 {
	ops, sink := 0, 0
	start := time.Now()
	var buf []tree.NodeID
	for time.Since(start) < 200*time.Millisecond {
		items := s.Descendants(s.Root(), "item", nil)
		ops++
		for _, item := range items {
			for _, tag := range []string{"name", "description"} {
				buf = s.ChildrenByTag(item, tag, buf[:0])
				ops++
				for _, n := range buf {
					sink += len(s.StringValue(n))
					ops++
				}
			}
			id, _ := s.Attr(item, "id")
			hits, _ := s.AttrLookup("id", id)
			sink += len(hits)
			ops += 2
		}
	}
	if sink < 0 {
		panic("unreachable: keeps the calls' results live")
	}
	return float64(ops) / 1e6 / time.Since(start).Seconds()
}

// keywordSearch runs each query text three times on the instance,
// serialized and discarded, and returns the median time of each in
// milliseconds.
func keywordSearch(inst *xmark.Instance, texts []string) ([]float64, error) {
	var out []float64
	for _, text := range texts {
		prep, err := inst.Engine.Prepare(text)
		if err != nil {
			return nil, err
		}
		var runs []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := prep.SerializeSession(io.Discard, nil); err != nil {
				return nil, err
			}
			runs = append(runs, ms(time.Since(start)))
		}
		out = append(out, Median(runs))
	}
	return out, nil
}

// probeShards keeps a ruler on the parked shard tier: System D in two
// shards, the point-prepared queries the coordinator can scatter, each
// timed through the coordinator and through the unsharded executor.
func probeShards(ctx context.Context, cfg Config, m map[string]float64) error {
	sysD, err := xmark.SystemByID(xmark.SystemD)
	if err != nil {
		return err
	}
	scat, err := shard.Load(cfg.Factor, 2, []xmark.System{sysD})
	if err != nil {
		return err
	}
	m["shard.load_ms"] = ms(scat.LoadTime)
	co, err := shard.NewCoordinator(scat, shard.Config{})
	if err != nil {
		return err
	}
	defer co.Close()
	pointPrepared, err := WorkloadByName("point-prepared")
	if err != nil {
		return err
	}
	cells, err := pointPrepared.Cells(cfg.Seed, Lexicon{})
	if err != nil {
		return err
	}
	var scattered, direct float64
	for _, c := range cells {
		if c.System != string(xmark.SystemD) || co.MergeMode(c.QueryID) == plan.ShardNone {
			continue
		}
		var viaShards, viaGlobal []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := co.Query(ctx, xmark.SystemD, c.QueryID); err != nil {
				return err
			}
			viaShards = append(viaShards, ms(time.Since(start)))
			start = time.Now()
			if _, err := co.Global().Execute(ctx, service.Request{System: xmark.SystemD, QueryID: c.QueryID}); err != nil {
				return err
			}
			viaGlobal = append(viaGlobal, ms(time.Since(start)))
		}
		scattered += Median(viaShards)
		direct += Median(viaGlobal)
	}
	if direct == 0 {
		return fmt.Errorf("bench: no point-prepared query scatters across shards")
	}
	m["shard.scatter_overhead_ratio"] = scattered / direct
	return nil
}
