package xmark

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/nodestore"
	"repro/internal/tree"
)

var (
	refTextEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	refAttrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// refSerializer is the test's own result serializer: a recursive walk over
// the plain nodestore.Store accessors (Kind, Tag, Attrs, Children, Text)
// with strings.Replacer escaping. It shares no code with engine.ItemWriter,
// the stores' AppendSubtree walks or tree's span escaper, so it is an
// independent oracle for all three.
type refSerializer struct {
	b          strings.Builder
	store      nodestore.Store
	prevAtomic bool
}

func (r *refSerializer) item(it engine.Item) {
	switch v := it.(type) {
	case engine.StrItem:
		r.atomic(string(v))
	case engine.NumItem:
		r.atomic(engine.FormatNumber(float64(v)))
	case engine.BoolItem:
		if v {
			r.atomic("true")
		} else {
			r.atomic("false")
		}
	case engine.AttrItem:
		r.atomic(v.Value)
	case engine.NodeItem:
		if r.store.Kind(v.ID) == tree.Text {
			r.atomic(r.store.Text(v.ID))
			return
		}
		r.node(v.ID)
		r.prevAtomic = false
	case engine.DocItem:
		r.node(r.store.Root())
		r.prevAtomic = false
	case *engine.Constructed:
		r.constructed(v)
		r.prevAtomic = false
	}
}

func (r *refSerializer) atomic(s string) {
	if r.prevAtomic {
		r.b.WriteString(" ")
	}
	r.b.WriteString(refTextEscaper.Replace(s))
	r.prevAtomic = true
}

func (r *refSerializer) open(tag string, attrs []tree.Attr, empty bool) {
	r.b.WriteString("<" + tag)
	for _, a := range attrs {
		r.b.WriteString(" " + a.Name + `="` + refAttrEscaper.Replace(a.Value) + `"`)
	}
	if empty {
		r.b.WriteString("/>")
	} else {
		r.b.WriteString(">")
	}
}

func (r *refSerializer) node(n tree.NodeID) {
	if r.store.Kind(n) == tree.Text {
		r.b.WriteString(refTextEscaper.Replace(r.store.Text(n)))
		return
	}
	tag := r.store.Tag(n)
	kids := r.store.Children(n, nil)
	r.open(tag, r.store.Attrs(n), len(kids) == 0)
	if len(kids) == 0 {
		return
	}
	for _, c := range kids {
		r.node(c)
	}
	r.b.WriteString("</" + tag + ">")
}

func (r *refSerializer) constructed(c *engine.Constructed) {
	r.open(c.Tag, c.Attrs, len(c.Children) == 0)
	if len(c.Children) == 0 {
		return
	}
	for _, ch := range c.Children {
		switch v := ch.(type) {
		case engine.StrItem:
			r.b.WriteString(refTextEscaper.Replace(string(v)))
		case engine.NumItem:
			r.b.WriteString(engine.FormatNumber(float64(v)))
		case engine.BoolItem:
			if v {
				r.b.WriteString("true")
			} else {
				r.b.WriteString("false")
			}
		case engine.AttrItem:
			r.b.WriteString(refTextEscaper.Replace(v.Value))
		case engine.NodeItem:
			r.node(v.ID)
		case *engine.Constructed:
			r.constructed(v)
		}
	}
	r.b.WriteString("</" + c.Tag + ">")
}

// referenceSerialize executes prep strictly tuple-at-a-time and
// sequentially, and serializes the streamed items with refSerializer.
func referenceSerialize(t *testing.T, prep *engine.Prepared, store nodestore.Store) string {
	t.Helper()
	sess := engine.NewSession()
	sess.Degree, sess.BatchSize = 1, 1
	r := &refSerializer{store: store}
	if err := prep.StreamSession(sess, func(it engine.Item) bool { r.item(it); return true }); err != nil {
		t.Fatal(err)
	}
	return r.b.String()
}

// reconstructionProbes complement the benchmark queries, none of whose
// results holds a stored element with attributes or a value that needs
// escaping: whole stored subtrees with attributes and mixed content, and
// escaped text and attribute values in constructed and atomic items.
var reconstructionProbes = []string{
	`for $t in /site/closed_auctions/closed_auction[position() <= 3] return $t`,
	`/site/regions/africa/item[position() <= 2]`,
	`(<r n="{/site/people/person[1]/@id}">{"1 < 2 &amp; 3 > 2"}{/site/people/person[1]/profile}</r>, "a<b", /site/people/person[1]/profile/@income)`,
}

// TestSerializeByteIdenticalAllQueries is the serializer's regression net:
// for every benchmark query and reconstruction probe on every system
// architecture, the engine's ItemWriter (subtree-batch emission through
// each store's AppendSubtree) must serialize exactly the bytes of
// referenceSerialize — at width 1 and the default width, sequentially and
// under morsel parallelism at degree 8, where merge seams and batch
// boundaries land in different places. It rides the CI race job
// (-run 'Serialize|...') alongside the gather workers.
func TestSerializeByteIdenticalAllQueries(t *testing.T) {
	b := bench(t, 0.01)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	var texts, names []string
	for _, q := range AllQueries() {
		texts = append(texts, b.QueryText(q.ID))
		names = append(names, fmt.Sprintf("Q%d", q.ID))
	}
	for i, text := range reconstructionProbes {
		texts = append(texts, text)
		names = append(names, fmt.Sprintf("probe %d", i))
	}
	for qi, text := range texts {
		for _, inst := range instances {
			prep, err := inst.Engine.Prepare(text)
			if err != nil {
				t.Fatalf("%s system %s: %v", names[qi], inst.System.ID, err)
			}
			want := referenceSerialize(t, prep, inst.Engine.Store())
			for _, degree := range []int{1, 8} {
				for _, width := range []int{1, 0} {
					if got := serializeWith(t, prep, degree, width); got != want {
						t.Errorf("%s system %s degree %d width %d: output differs from the reference serializer (%d vs %d bytes)",
							names[qi], inst.System.ID, degree, width, len(got), len(want))
					}
				}
			}
		}
	}
}
