package xmark

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/saxparse"
	"repro/internal/xmlgen"
)

// Benchmark holds one generated document and runs systems and queries
// against it.
type Benchmark struct {
	// Factor is the scaling factor of the document.
	Factor float64
	// Card is the document's entity cardinalities.
	Card xmlgen.Cardinalities
	// DocText is the generated document.
	DocText []byte
	// GenTime is the time xmlgen took to produce the document.
	GenTime time.Duration
}

// NewBenchmark generates the benchmark document at the given factor.
func NewBenchmark(factor float64) *Benchmark {
	g := xmlgen.New(xmlgen.Options{Factor: factor})
	var buf bytes.Buffer
	start := time.Now()
	if _, err := g.WriteTo(&buf); err != nil {
		// Writing to a bytes.Buffer cannot fail; any error is a bug.
		panic(err)
	}
	return &Benchmark{
		Factor:  factor,
		Card:    g.Cardinalities(),
		DocText: buf.Bytes(),
		GenTime: time.Since(start),
	}
}

// QueryText returns the source of query id adapted to this document.
func (b *Benchmark) QueryText(id int) string { return Query(id).Text(b.Card) }

// ScanTime tokenizes the document with the streaming parser and returns
// the elapsed time: the paper's expat baseline ("this time only includes
// the tokenization of the input stream").
func (b *Benchmark) ScanTime() (time.Duration, error) {
	start := time.Now()
	err := saxparse.Parse(b.DocText, saxparse.Callbacks{})
	return time.Since(start), err
}

// LoadAll bulkloads the document into each system.
func (b *Benchmark) LoadAll(systems []System) ([]*Instance, error) {
	out := make([]*Instance, 0, len(systems))
	for _, s := range systems {
		inst, err := s.Load(b.DocText)
		if err != nil {
			return nil, fmt.Errorf("loading system %s: %w", s.ID, err)
		}
		out = append(out, inst)
	}
	return out, nil
}

// RunQuery runs query id on the instance.
func (b *Benchmark) RunQuery(inst *Instance, id int) (QueryResult, error) {
	return inst.Run(id, b.QueryText(id))
}

// VerifyAll runs every numbered query (AllQueries, Q1-Q23) on every
// instance and checks that all architectures return identical serialized
// results. This is the benchmark-as-verifier use of the paper (§1: the
// query set can "aid in the verification of query processors").
func (b *Benchmark) VerifyAll(instances []*Instance) error {
	_, err := b.verifyAll(instances)
	return err
}

// verifyAll is VerifyAll returning every result it compared, query by
// query and in instance order.
func (b *Benchmark) verifyAll(instances []*Instance) ([]QueryResult, error) {
	var all []QueryResult
	for _, q := range AllQueries() {
		for i, inst := range instances {
			res, err := b.RunQuery(inst, q.ID)
			if err != nil {
				return nil, err
			}
			if i > 0 && res.Output != all[len(all)-i].Output {
				ref := all[len(all)-i]
				return nil, fmt.Errorf("Q%d: system %s result differs from system %s (%d vs %d bytes)",
					q.ID, res.System, ref.System, len(res.Output), len(ref.Output))
			}
			all = append(all, res)
		}
	}
	return all, nil
}

// Table1Row is one row of the bulkload experiment.
type Table1Row struct {
	System   SystemID
	Size     int64
	Load     time.Duration
	Tables   int
	DocBytes int64
}

// RunTable1 bulkloads Systems A-F and reports database sizes and load
// times (paper Table 1).
func (b *Benchmark) RunTable1() ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 6)
	for _, s := range MassStorageSystems() {
		inst, err := s.Load(b.DocText)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			System:   s.ID,
			Size:     inst.Stats.SizeBytes,
			Load:     inst.LoadTime,
			Tables:   inst.Stats.Tables,
			DocBytes: int64(len(b.DocText)),
		})
	}
	return rows, nil
}

// Table2Row is one row of the compile/execute breakdown (paper Table 2:
// Q1 and Q2 on the relational Systems A, B, C).
type Table2Row struct {
	QueryID int
	System  SystemID
	Compile time.Duration
	Execute time.Duration
	// MetaProbes counts catalog consultations during compilation; the
	// paper traces compile-time differences to metadata access.
	MetaProbes int
}

// CompileShare returns compilation as a percentage of total time.
func (r Table2Row) CompileShare() float64 {
	total := r.Compile + r.Execute
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Compile) / float64(total)
}

// ExecuteShare returns execution as a percentage of total time.
func (r Table2Row) ExecuteShare() float64 {
	total := r.Compile + r.Execute
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Execute) / float64(total)
}

// RunTable2 reproduces Table 2: detailed timings of Q1 and Q2 for Systems
// A, B and C. Queries are repeated `reps` times and the best run kept, as
// short compile phases need stabilizing.
func (b *Benchmark) RunTable2(reps int) ([]Table2Row, error) {
	var rows []Table2Row
	for _, qid := range []int{1, 2} {
		for _, sid := range []SystemID{SystemA, SystemB, SystemC} {
			sys, err := SystemByID(sid)
			if err != nil {
				return nil, err
			}
			inst, err := sys.Load(b.DocText)
			if err != nil {
				return nil, err
			}
			best := Table2Row{QueryID: qid, System: sid}
			text := b.QueryText(qid)
			for r := 0; r < reps; r++ {
				res, err := inst.Run(qid, text)
				if err != nil {
					return nil, err
				}
				prep, err := inst.Engine.Prepare(text)
				if err != nil {
					return nil, err
				}
				if r == 0 || res.Total() < best.Compile+best.Execute {
					best.Compile = res.Compile
					best.Execute = res.Execute
					best.MetaProbes = prep.MetaProbes
				}
			}
			rows = append(rows, best)
		}
	}
	return rows, nil
}

// Table3QueryIDs are the queries whose runtimes the paper reports in
// Table 3.
var Table3QueryIDs = []int{1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 17, 20}

// Table3Cell is one measurement of Table 3.
type Table3Cell struct {
	QueryID int
	System  SystemID
	Time    time.Duration
	OutSize int
	// Allocs is the heap allocation count of the best run (compile plus
	// streamed execution), measured from runtime.MemStats deltas.
	Allocs uint64
}

// RunTable3 reproduces Table 3: runtimes of the reported queries on the
// mass-storage Systems A-F. Each cell is the best of three runs, which
// removes allocator warm-up jitter from the sub-millisecond cells.
func (b *Benchmark) RunTable3() ([]Table3Cell, error) {
	instances, err := b.LoadAll(MassStorageSystems())
	if err != nil {
		return nil, err
	}
	const reps = 3
	var cells []Table3Cell
	var ms runtime.MemStats
	for _, qid := range Table3QueryIDs {
		for _, inst := range instances {
			cell := Table3Cell{QueryID: qid, System: inst.System.ID}
			for r := 0; r < reps; r++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				res, err := b.RunQuery(inst, qid)
				if err != nil {
					return nil, err
				}
				runtime.ReadMemStats(&ms)
				if r == 0 || res.Total() < cell.Time {
					cell.Time = res.Total()
					cell.OutSize = len(res.Output)
					cell.Allocs = ms.Mallocs - before
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// Figure4Point is one measurement of the embedded-processor experiment.
type Figure4Point struct {
	QueryID int
	Factor  float64
	Time    time.Duration
}

// RunFigure4 reproduces Figure 4: all twenty queries on the embedded
// System G at the paper's two small scales (factors 0.001 and 0.01,
// i.e. the 100 kB and 1 MB documents).
func RunFigure4(factors []float64) ([]Figure4Point, error) {
	sysG, err := SystemByID(SystemG)
	if err != nil {
		return nil, err
	}
	var points []Figure4Point
	for _, f := range factors {
		bench := NewBenchmark(f)
		inst, err := sysG.Load(bench.DocText)
		if err != nil {
			return nil, err
		}
		for _, q := range Queries() {
			res, err := bench.RunQuery(inst, q.ID)
			if err != nil {
				return nil, err
			}
			points = append(points, Figure4Point{QueryID: q.ID, Factor: f, Time: res.Total()})
		}
	}
	return points, nil
}

// Figure3Row is one row of the generator scaling experiment.
type Figure3Row struct {
	Factor   float64
	Bytes    int64
	GenTime  time.Duration
	Entities int
}

// RunFigure3 measures generated document sizes across factors, the
// scaling table of the paper's Figure 3.
func RunFigure3(factors []float64) []Figure3Row {
	rows := make([]Figure3Row, 0, len(factors))
	for _, f := range factors {
		b := NewBenchmark(f)
		rows = append(rows, Figure3Row{
			Factor:   f,
			Bytes:    int64(len(b.DocText)),
			GenTime:  b.GenTime,
			Entities: b.Card.Items + b.Card.People + b.Card.Categories + b.Card.Open + b.Card.Closed,
		})
	}
	return rows
}
