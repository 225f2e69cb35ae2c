package bench

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"

	"repro/internal/words"
	"repro/internal/xmark"
)

// castagnoli is the CRC-32C table responses are checked with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Ref is the expected body of a response: its length and CRC-32C.
type Ref struct {
	Len int
	CRC uint32
}

// Oracle computes reference results in-process, independently of the
// server under test: the benchmark document loaded into System F (plain
// pointer traversal, no index, no path extents) and every query run at
// degree 1 and width 1, so the reference shares neither the served
// systems' access paths nor their parallel or batch operators.
type Oracle struct {
	Bench *xmark.Benchmark
	F     *xmark.Instance
}

// NewOracle generates the document at factor and bulkloads System F.
func NewOracle(factor float64) (*Oracle, error) {
	sysF, err := xmark.SystemByID(xmark.SystemF)
	if err != nil {
		return nil, err
	}
	b := xmark.NewBenchmark(factor)
	inst, err := sysF.Load(b.DocText)
	if err != nil {
		return nil, fmt.Errorf("bench: loading the reference system: %w", err)
	}
	return &Oracle{Bench: b, F: inst}, nil
}

// Lexicon exposes the document's vocabulary and query texts to the
// workload generator.
func (o *Oracle) Lexicon() Lexicon {
	return Lexicon{Word: words.WordAt, QueryText: o.Bench.QueryText, People: o.Bench.Card.People}
}

// Text returns the query source a cell executes.
func (o *Oracle) Text(c Cell) string {
	if c.QueryID != 0 {
		return o.Bench.QueryText(c.QueryID)
	}
	return c.Text
}

// Refs computes the expected response body of every distinct query among
// cells, GOMAXPROCS at a time. xqserve terminates each result with a
// newline, so the reference does too.
func (o *Oracle) Refs(cells []Cell) (map[string]Ref, error) {
	refs := make(map[string]Ref)
	var todo []Cell
	for _, c := range cells {
		if _, seen := refs[c.RefKey()]; !seen {
			refs[c.RefKey()] = Ref{}
			todo = append(todo, c)
		}
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan Cell)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				res, err := o.F.RunOpts(c.QueryID, o.Text(c), 1, 1)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("bench: reference for %s: %w", c.Label, err)
				}
				refs[c.RefKey()] = Ref{
					Len: len(res.Output) + 1,
					CRC: crc32.Update(crc32.Checksum([]byte(res.Output), castagnoli), castagnoli, []byte{'\n'}),
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range todo {
		work <- c
	}
	close(work)
	wg.Wait()
	return refs, firstErr
}
