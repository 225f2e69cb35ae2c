package xmark

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/nodestore"
)

// JoinQueryIDs are the Q8-Q12 join family: the equality joins the planner
// rewrites to (batch) hash joins and the Q11/Q12 theta joins it rewrites
// to (batch) nested-loop joins — the tuple-at-a-time remnant the columnar
// vectorization targets.
var JoinQueryIDs = []int{8, 9, 10, 11, 12}

// vectorVerifyDegrees are the intra-query parallelism degrees every
// measured cell is byte-verified at (for each width) before it is timed.
var vectorVerifyDegrees = []int{1, 8}

// VectorPoint is one cell of the join-vectorization experiment: the same
// prepared query serialized tuple-at-a-time (width 1, the pre-columnar
// engine) and columnar-batch (the default width), byte-verified identical
// at widths {1, default} x degrees {1, 8} before anything is timed.
type VectorPoint struct {
	System  SystemID `json:"system"`
	QueryID int      `json:"query"`
	// TupleNs and BatchNs are the best serialization wall times.
	TupleNs int64 `json:"tuple_ns_op"`
	BatchNs int64 `json:"batch_ns_op"`
	// TupleAllocs and BatchAllocs are the heap allocation counts of the
	// best runs, from runtime.MemStats deltas.
	TupleAllocs uint64 `json:"tuple_allocs"`
	BatchAllocs uint64 `json:"batch_allocs"`
	// Speedup is tuple time over batch time (1.0 = no change).
	Speedup float64 `json:"speedup"`
	// JoinVectorized reports whether the plan carries a vectorize-join
	// firing (a BatchHashJoin, BatchSortJoin or BatchNestedLoopJoin node); false marks
	// the honest tuple baselines where no join scan clears the cost gate
	// (the plain-traversal and embedded systems).
	JoinVectorized bool `json:"join_vectorized"`
	// BindVectorized reports a vectorize-bind firing (batch for-clause
	// binding) — fires together with or independently of the joins.
	BindVectorized bool `json:"bind_vectorized"`
	// SerVectorized reports a vectorize-serialize firing: the root drains
	// through the batch writer (and any vectorize-construct marks batch
	// the element constructors feeding it).
	SerVectorized bool `json:"ser_vectorized"`
	OutBytes      int  `json:"out_bytes"`
	// TupleMBps and BatchMBps are emission rates derived from OutBytes:
	// megabytes of serialized result per second of wall time.
	TupleMBps float64 `json:"tuple_mb_s"`
	BatchMBps float64 `json:"batch_mb_s"`
}

// VectorReport is the BENCH_vector.json artifact: tuple vs columnar-batch
// ns/op and allocs over the join family, per query x system.
type VectorReport struct {
	Factor        float64       `json:"factor"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	BatchSize     int           `json:"batch_size"`
	VerifyDegrees []int         `json:"verify_degrees"`
	QueryIDs      []int         `json:"queries"`
	Systems       []SystemID    `json:"systems"`
	Points        []VectorPoint `json:"points"`
	// FamilySpeedup is the per-system geometric mean of the family's
	// speedups — the one-number answer to "what did vectorizing the joins
	// buy", robust to one query's ratio dominating the mean.
	FamilySpeedup map[SystemID]float64 `json:"family_speedup"`
}

// summarize fills FamilySpeedup from the measured points.
func (r *VectorReport) summarize() {
	r.FamilySpeedup = make(map[SystemID]float64)
	logSum, counts := map[SystemID]float64{}, map[SystemID]int{}
	for _, p := range r.Points {
		if p.Speedup > 0 {
			logSum[p.System] += math.Log(p.Speedup)
			counts[p.System]++
		}
	}
	for sys, n := range counts {
		r.FamilySpeedup[sys] = math.Exp(logSum[sys] / float64(n))
	}
}

// RunVectorBench measures tuple-at-a-time vs columnar-batch execution over
// the Q8-Q12 join family: each query is prepared once per system, its
// output is byte-verified identical at widths {1, default} x degrees
// {1, 8}, and then both widths are timed best-of-reps at degree 0
// (sequential) so the comparison isolates the join vectorization effect
// from morsel parallelism.
func (b *Benchmark) RunVectorBench(systems []System, queryIDs []int, reps int) (*VectorReport, error) {
	if len(queryIDs) == 0 {
		queryIDs = JoinQueryIDs
	}
	if reps < 1 {
		reps = 1
	}
	report := &VectorReport{
		Factor:        b.Factor,
		GoMaxProcs:    maxProcs(),
		BatchSize:     nodestore.DefaultBatchSize,
		VerifyDegrees: vectorVerifyDegrees,
		QueryIDs:      queryIDs,
	}
	for _, s := range systems {
		report.Systems = append(report.Systems, s.ID)
	}
	instances, err := b.LoadAll(systems)
	if err != nil {
		return nil, err
	}
	for _, inst := range instances {
		for _, qid := range queryIDs {
			prep, err := inst.Engine.Prepare(b.QueryText(qid))
			if err != nil {
				return nil, fmt.Errorf("system %s Q%d: %w", inst.System.ID, qid, err)
			}
			pt := VectorPoint{System: inst.System.ID, QueryID: qid}
			for _, r := range prep.Plan().Fired {
				switch r {
				case "vectorize-join":
					pt.JoinVectorized = true
				case "vectorize-bind":
					pt.BindVectorized = true
				case "vectorize-serialize":
					pt.SerVectorized = true
				}
			}
			// The verification matrix: every width x degree cell must be
			// byte-identical to the tuple sequential reference.
			ref, err := serializeVector(prep, 1, 1)
			if err != nil {
				return nil, fmt.Errorf("system %s Q%d tuple: %w", inst.System.ID, qid, err)
			}
			pt.OutBytes = len(ref)
			for _, width := range []int{1, 0} {
				for _, degree := range vectorVerifyDegrees {
					got, err := serializeVector(prep, width, degree)
					if err != nil {
						return nil, fmt.Errorf("system %s Q%d width=%d degree=%d: %w",
							inst.System.ID, qid, width, degree, err)
					}
					if got != ref {
						return nil, fmt.Errorf(
							"system %s Q%d: width=%d degree=%d output differs from tuple (%d vs %d bytes)",
							inst.System.ID, qid, width, degree, len(got), len(ref))
					}
				}
			}
			if err := timeVectorCell(prep, reps, &pt); err != nil {
				return nil, err
			}
			if pt.BatchNs > 0 {
				pt.Speedup = float64(pt.TupleNs) / float64(pt.BatchNs)
			}
			pt.TupleMBps = mbps(pt.OutBytes, pt.TupleNs)
			pt.BatchMBps = mbps(pt.OutBytes, pt.BatchNs)
			report.Points = append(report.Points, pt)
		}
	}
	report.summarize()
	return report, nil
}

// serializeVector runs prep at the given batch width and parallelism
// degree on a fresh Session and returns the full serialized output.
func serializeVector(prep *engine.Prepared, width, degree int) (string, error) {
	sess := engine.NewSession()
	sess.BatchSize = width
	sess.Degree = degree
	var b strings.Builder
	if err := prep.SerializeSession(&b, sess); err != nil {
		return "", err
	}
	return b.String(), nil
}

// timeVectorCell measures one cell in both widths, interleaving a tuple
// run and a batch run per repetition (clock drift and GC cycles land on
// both alike), each run on a fresh Session at degree 0. Allocation-heavy
// cells pin a collection before every run, like the batch bench. Cells
// whose plan carries no vectorize firing at all run the identical tuple
// pipeline at every width, so only tuple mode is timed.
func timeVectorCell(prep *engine.Prepared, reps int, pt *VectorPoint) error {
	const (
		minWindow = 250 * time.Millisecond
		maxReps   = 4000
	)
	vectorized := pt.JoinVectorized || pt.BindVectorized || pt.SerVectorized
	runtime.GC()
	gcEach := false
	var total time.Duration
	for r := 0; r < reps || (total < minWindow && r < maxReps); r++ {
		if gcEach {
			runtime.GC()
		}
		dTuple, aTuple, err := timeOnce(prep, 1)
		if err != nil {
			return err
		}
		total += dTuple
		if r == 0 || dTuple.Nanoseconds() < pt.TupleNs {
			pt.TupleNs, pt.TupleAllocs = dTuple.Nanoseconds(), aTuple
		}
		if vectorized {
			if gcEach {
				runtime.GC()
			}
			dBatch, aBatch, err := timeOnce(prep, 0)
			if err != nil {
				return err
			}
			total += dBatch
			if r == 0 || dBatch.Nanoseconds() < pt.BatchNs {
				pt.BatchNs, pt.BatchAllocs = dBatch.Nanoseconds(), aBatch
			}
		}
		gcEach = aTuple > 1_000_000
	}
	if !vectorized {
		pt.BatchNs, pt.BatchAllocs = pt.TupleNs, pt.TupleAllocs
	}
	return nil
}

// Render prints the join-vectorization table.
func (r *VectorReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Columnar-batch vs tuple joins (factor %g, batch size %d, verified at widths {1,default} x degrees %v)\n",
		r.Factor, r.BatchSize, r.VerifyDegrees)
	fmt.Fprintf(w, "%-8s %6s %12s %12s %8s %10s %10s %12s %12s %s\n",
		"system", "query", "tuple ns/op", "batch ns/op", "speedup", "tuple MB/s", "batch MB/s", "tuple allocs", "batch allocs", "plan")
	for _, p := range r.Points {
		var marks []string
		if p.JoinVectorized {
			marks = append(marks, "join")
		}
		if p.BindVectorized {
			marks = append(marks, "bind")
		}
		if p.SerVectorized {
			marks = append(marks, "ser")
		}
		plan := "tuple-only"
		if len(marks) > 0 {
			plan = strings.Join(marks, "+")
		}
		fmt.Fprintf(w, "%-8s %6s %12d %12d %7.2fx %10.1f %10.1f %12d %12d %s\n",
			p.System, fmt.Sprintf("Q%d", p.QueryID), p.TupleNs, p.BatchNs, p.Speedup,
			p.TupleMBps, p.BatchMBps, p.TupleAllocs, p.BatchAllocs, plan)
	}
	for _, sys := range r.Systems {
		if g, ok := r.FamilySpeedup[sys]; ok {
			fmt.Fprintf(w, "%-8s family geomean %6.2fx\n", sys, g)
		}
	}
}
