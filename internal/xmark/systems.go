package xmark

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fulltext"
	"repro/internal/mapping"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

// SystemID names the anonymized systems of the paper's evaluation.
type SystemID string

// The seven evaluated systems (paper §7).
const (
	SystemA SystemID = "A" // relational, one big heap relation
	SystemB SystemID = "B" // relational, highly fragmenting path mapping
	SystemC SystemID = "C" // relational, DTD-derived inlined schema
	SystemD SystemID = "D" // main-memory with structural summary
	SystemE SystemID = "E" // main-memory with tag indexes
	SystemF SystemID = "F" // main-memory, plain traversal
	SystemG SystemID = "G" // embedded query processor
)

// System describes one architecture under test.
type System struct {
	ID SystemID
	// Architecture is the de-anonymized description the paper gives.
	Architecture string
	// MassStorage marks Systems A-F (paper category 1).
	MassStorage bool

	build func(doc *tree.Doc) nodestore.Store
	opts  engine.Options
}

// Systems returns all seven systems in order.
func Systems() []System { return systems }

// MassStorageSystems returns Systems A through F.
func MassStorageSystems() []System { return systems[:6] }

// SystemByID returns the system with the given ID.
func SystemByID(id SystemID) (System, error) {
	for _, s := range systems {
		if s.ID == id {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("xmark: unknown system %q", id)
}

// systems holds the seven profiles. The indexed architectures A-E allow
// morsel-style intra-query parallelism (MaxDegree 8): their stores expose
// splittable extents. F navigates raw pointers and G is the embedded
// single-session processor; both stay strictly sequential, like the
// originals.
var systems = []System{
	{
		ID:           SystemA,
		Architecture: "relational, all XML data on one big heap relation (edge mapping [20])",
		MassStorage:  true,
		build:        func(doc *tree.Doc) nodestore.Store { return mapping.NewEdge(doc) },
		opts:         engine.Options{HashJoins: true, AttrIndexes: true, FulltextIndex: true, MaxDegree: 8},
	},
	{
		ID:           SystemB,
		Architecture: "relational, highly fragmenting mapping (one relation per label path)",
		MassStorage:  true,
		build:        func(doc *tree.Doc) nodestore.Store { return mapping.NewPath(doc) },
		opts:         engine.Options{PathExtents: true, HashJoins: true, AttrIndexes: true, FulltextIndex: true, MaxDegree: 8},
	},
	{
		ID:           SystemC,
		Architecture: "relational, DTD-derived schema with inlined #PCDATA children [23]",
		MassStorage:  true,
		build:        func(doc *tree.Doc) nodestore.Store { return mapping.NewInline(doc) },
		opts:         engine.Options{PathExtents: true, HashJoins: true, Inlining: true, AttrIndexes: true, FulltextIndex: true, MaxDegree: 8},
	},
	{
		ID:           SystemD,
		Architecture: "main-memory with detailed structural summary and tag indexes",
		MassStorage:  true,
		build: func(doc *tree.Doc) nodestore.Store {
			return nodestore.NewDOM("dom+summary", doc, nodestore.DOMOptions{Summary: true, TagExtents: true, AttrIndexes: true, FilteredScans: true})
		},
		opts: engine.Options{PathExtents: true, CountShortcut: true, HashJoins: true, AttrIndexes: true, FulltextIndex: true, MaxDegree: 8},
	},
	{
		ID:           SystemE,
		Architecture: "main-memory with tag indexes, heuristic optimizer",
		MassStorage:  true,
		build: func(doc *tree.Doc) nodestore.Store {
			return nodestore.NewDOM("dom+extents", doc, nodestore.DOMOptions{TagExtents: true, AttrIndexes: true})
		},
		opts: engine.Options{HashJoins: true, AttrIndexes: true, FulltextIndex: true, MaxDegree: 8},
	},
	{
		ID:           SystemF,
		Architecture: "main-memory, plain pointer traversal without auxiliary indexes",
		MassStorage:  true,
		build: func(doc *tree.Doc) nodestore.Store {
			return nodestore.NewDOM("dom", doc, nodestore.DOMOptions{})
		},
		opts: engine.Options{HashJoins: true},
	},
	{
		ID:           SystemG,
		Architecture: "embedded query processor: per-session document parse, no indexes, nested loops, string materialization",
		MassStorage:  false,
		build: func(doc *tree.Doc) nodestore.Store {
			return nodestore.NewDOM("naive", doc, nodestore.DOMOptions{})
		},
		opts: engine.Options{NaiveStrings: true},
	},
}

// Options returns the engine optimizations of the system's profile.
func (s System) Options() engine.Options { return s.opts }

// Instance is a loaded system: a store built from a document plus its
// query engine.
type Instance struct {
	System System
	Engine *engine.Engine
	// LoadTime is the bulkload wall time, the Table 1 measurement. From
	// Load it covers document parse, store build and, on A-E, the text
	// index. Inside a service catalog the parse and the text index are
	// shared by every system and timed on the catalog, so there it covers
	// the store build alone.
	LoadTime time.Duration
	// Stats is the loaded database's size accounting.
	Stats nodestore.Stats

	// raw holds the document text for System G, which re-parses it per
	// query session like the paper's embedded processors re-walk their
	// input documents.
	raw []byte
}

// Load bulkloads the document text into the system, timing parse, store
// construction and the text index as one completed transaction (paper §7,
// Table 1). It is the standalone path: a caller serving several systems
// over one document parses once and calls Build for each.
func (s System) Load(docText []byte) (*Instance, error) {
	start := time.Now()
	doc, err := tree.Parse(docText)
	if err != nil {
		return nil, err
	}
	inst := s.Build(docText, doc, nil)
	inst.LoadTime = time.Since(start)
	return inst, nil
}

// Build constructs the system's store over doc, the parse of docText. The
// store only reads doc, so many systems may build from one doc at once;
// System G also keeps docText for its per-query re-parse. textIndex, called
// once the store is built, supplies the text index of the systems that use
// one: any index over doc serves every store of it, since every mapping
// keeps the document's pre-order NodeIDs. A nil textIndex builds the
// store's own, and LoadTime then includes it.
func (s System) Build(docText []byte, doc *tree.Doc, textIndex func() nodestore.TextIndex) *Instance {
	start := time.Now()
	store := s.build(doc)
	inst := &Instance{System: s, LoadTime: time.Since(start), Stats: store.Stats()}
	if s.opts.FulltextIndex {
		// Attached before the store is published: it rides along wherever
		// the store goes (the service catalog, every shard's territory).
		if textIndex != nil {
			store.AttachTextIndex(textIndex())
		} else {
			store.AttachTextIndex(fulltext.Build(store))
			inst.LoadTime = time.Since(start)
		}
	}
	inst.Engine = engine.New(store, s.opts)
	if s.ID == SystemG {
		inst.raw = docText
	}
	return inst
}

// QueryResult is one timed query execution.
type QueryResult struct {
	System  SystemID
	QueryID int
	// Compile is the query compilation time (parse, static checks,
	// metadata access).
	Compile time.Duration
	// Execute is the evaluation plus serialization time.
	Execute time.Duration
	// Output is the serialized result.
	Output string
}

// Total returns compile plus execute time.
func (r QueryResult) Total() time.Duration { return r.Compile + r.Execute }

// Run compiles and executes the query text, timing the phases separately
// as in the paper's Table 2. Execution streams: the engine's iterator
// pipeline feeds the serializer item by item, so the result sequence is
// never materialized, only its serialized text. For System G the execution
// phase includes the per-session document parse, the constant overhead
// Figure 4 exhibits.
func (inst *Instance) Run(queryID int, text string) (QueryResult, error) {
	return inst.RunDegree(queryID, text, 0)
}

// RunDegree is Run with an intra-query parallelism budget: a degree above
// one lets the plan's Gather operators fan partitioned scans out across
// worker goroutines. Output is byte-identical at every degree.
func (inst *Instance) RunDegree(queryID int, text string, degree int) (QueryResult, error) {
	return inst.RunOpts(queryID, text, degree, 0)
}

// RunOpts is RunDegree with an explicit batch-at-a-time vector width:
// 0 keeps the engine default, 1 forces strict tuple-at-a-time execution
// (the pre-vectorization baseline the batch benchmark compares against),
// larger values run the plan's vectorized prefixes at that width. Output
// is byte-identical at every width and every degree.
func (inst *Instance) RunOpts(queryID int, text string, degree, batchSize int) (QueryResult, error) {
	res := QueryResult{System: inst.System.ID, QueryID: queryID}

	eng := inst.Engine
	if inst.raw != nil {
		// Embedded processor: a fresh private tree per query session.
		start := time.Now()
		doc, err := tree.Parse(inst.raw)
		if err != nil {
			return res, err
		}
		store := nodestore.NewDOM("naive", doc, nodestore.DOMOptions{})
		eng = engine.New(store, inst.System.opts)
		res.Execute += time.Since(start)
	}

	prep, err := eng.Prepare(text)
	if err != nil {
		return res, fmt.Errorf("system %s Q%d: %w", inst.System.ID, queryID, err)
	}
	res.Compile = prep.CompileTime

	sess := engine.NewSession()
	sess.Degree = degree
	sess.BatchSize = batchSize
	start := time.Now()
	var out strings.Builder
	if err := prep.SerializeSession(&out, sess); err != nil {
		return res, fmt.Errorf("system %s Q%d: %w", inst.System.ID, queryID, err)
	}
	res.Output = out.String()
	res.Execute += time.Since(start)
	return res, nil
}
