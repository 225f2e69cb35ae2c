package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/nodestore"
	"repro/internal/obs"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// TestAdHocRunsOnWorkerSession pins where ad-hoc texts execute: on the
// worker's own session, like cached plans — a run leaves its join indexes
// on the session it was handed — and a stream of distinct texts leaves
// nothing behind, because serve resets the session after every request.
func TestAdHocRunsOnWorkerSession(t *testing.T) {
	c := testCat(t)
	// Parallel 1: a fanned-out scan runs its joins on the partition workers'
	// own sessions, which is not what this test watches.
	ex := NewExecutor(c, Config{Workers: 1, Parallel: 1})
	defer ex.Close()
	ctx := context.Background()
	sess := engine.NewSession()

	text, err := c.QueryText(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.run(ctx, sess, Request{System: xmark.SystemD, Text: text}); err != nil {
		t.Fatal(err)
	}
	if sess.CachedJoins() == 0 {
		t.Fatal("an ad-hoc join left no index on the worker's session: it ran on a throw-away one")
	}
	sess.Reset()

	for _, qid := range []int{8, 9, 10, 11, 12} {
		text, err := c.QueryText(qid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.Execute(ctx, Request{System: xmark.SystemD, QueryID: qid})
		if err != nil {
			t.Fatal(err)
		}
		tk := &task{ctx: ctx, req: Request{System: xmark.SystemD, Text: text}, enq: time.Now(), done: make(chan taskResult, 1)}
		ex.metrics.queueDepth.Add(1) // what Execute does before the send
		ex.serve(sess, tk)
		res := <-tk.done
		if res.err != nil {
			t.Fatalf("ad-hoc Q%d: %v", qid, res.err)
		}
		if res.resp.Output != want.Output {
			t.Errorf("ad-hoc Q%d differs from the cached plan's answer", qid)
		}
		if res.resp.Compile <= 0 {
			t.Errorf("ad-hoc Q%d reported no compile time", qid)
		}
		if n := sess.CachedJoins(); n != 0 {
			t.Errorf("after ad-hoc Q%d the session still holds %d join indexes", qid, n)
		}
	}
}

// faultyStore panics on its failAt-th by-tag child navigation call,
// whether the engine asks for the slice or the cursor form, once: a store
// invariant breaking in the middle of a result stream.
type faultyStore struct {
	nodestore.Store
	calls, failAt int
}

func (f *faultyStore) step() {
	f.calls++
	if f.calls == f.failAt {
		panic("faultyStore: invariant broken")
	}
}

func (f *faultyStore) ChildrenByTag(n tree.NodeID, tag string, buf []tree.NodeID) []tree.NodeID {
	f.step()
	return f.Store.ChildrenByTag(n, tag, buf)
}

func (f *faultyStore) ChildrenByTagCursor(n tree.NodeID, tag string) nodestore.Cursor {
	f.step()
	return f.Store.ChildrenByTagCursor(n, tag)
}

// TestWorkerRecoversPanic pins the executor's panic barrier: a store that
// panics mid-stream fails that one request with ErrInternal naming its
// request ID, counts it as failed, and the (only) worker keeps serving.
func TestWorkerRecoversPanic(t *testing.T) {
	inst, err := testCat(t).Instance(xmark.SystemF)
	if err != nil {
		t.Fatal(err)
	}
	const query = `/site/people/person/name/text()`
	wantSeq, err := inst.Engine.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	store := &faultyStore{Store: inst.Engine.Store(), failAt: len(wantSeq) / 2}
	c := &Catalog{instances: map[xmark.SystemID]*xmark.Instance{
		xmark.SystemF: {Engine: engine.New(store, engine.Options{})},
	}}
	ex := NewExecutor(c, Config{Workers: 1})
	defer ex.Close()

	ctx := obs.ContextWithRequestID(context.Background(), "req-42")
	req := Request{System: xmark.SystemF, Text: query}
	resp, err := ex.Execute(ctx, req)
	if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "req-42") {
		t.Fatalf("err = %v, want ErrInternal naming req-42", err)
	}
	if resp.Output != "" {
		t.Errorf("a failed request returned %d bytes of output", len(resp.Output))
	}
	if snap := ex.Metrics().Snapshot(); snap.Failed != 1 || snap.InFlight != 0 {
		t.Errorf("failed = %d, in flight = %d, want 1 and 0", snap.Failed, snap.InFlight)
	}
	if store.calls < store.failAt {
		t.Fatalf("the store was never driven to its fault (%d calls)", store.calls)
	}

	resp, err = ex.Execute(ctx, req)
	if err != nil {
		t.Fatalf("the worker did not survive: %v", err)
	}
	if got := len(strings.Fields(resp.Output)); got == 0 {
		t.Error("second request returned nothing")
	}
}
