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

// pullSerialize is the serializer as a StreamSession consumer drives it:
// the pipeline pulls each result item, a constructed element arrives as a
// built tree, and an ItemWriter writes the items one by one.
func pullSerialize(t *testing.T, prep *engine.Prepared, store nodestore.Store, degree, width int) string {
	t.Helper()
	sess := engine.NewSession()
	sess.Degree, sess.BatchSize = degree, width
	var b strings.Builder
	iw := engine.NewItemWriter(&b, store)
	if err := prep.StreamSession(sess, func(it engine.Item) bool { return iw.WriteItem(it) == nil }); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// pushPullProbes are constructor shapes the benchmark queries leave out.
// inline says whether the inline-let rule must substitute the query's let.
var pushPullProbes = []struct {
	text   string
	inline bool
}{
	{`<a>{()}</a>`, false},
	{`<a>{""}</a>`, false},
	{`<a>{1}{2}</a>`, false},
	{`<a>{/site/people/person[1]/@id}{2.5}{1 = 1}</a>`, false},
	// A FLWOR as content, nested constructors in it.
	{`<a>{for $p in /site/people/person return <p id="{$p/@id}">{$p/name/text()}{()}</p>}</a>`, false},
	// Inlined into a comma sequence beside atomic content.
	{`for $p in /site/people/person let $x := ($p/name/text(), "x") return <a>{"s", $x}</a>`, true},
	// Lets the rule must keep: two references, an attribute value, a for
	// after the let, a reference inside a predicate.
	{`for $p in /site/people/person let $x := $p/name return <a>{$x}{$x}</a>`, false},
	{`for $p in /site/people/person let $x := $p/name/text() return <a n="{$x}">{$p/@id}</a>`, false},
	{`for $p in /site/people/person let $x := $p/name for $w in $p/watches/watch return <a>{$x}</a>`, false},
	{`for $p in /site/people/person let $x := $p/@id return <a>{/site/closed_auctions/closed_auction[buyer/@person = $x]/price}</a>`, false},
	// Batch scans and selects as content: directly, beside an atomic in a
	// comma sequence, and as a content FLWOR's return. The vectorize rule
	// marks them as pipelines of their own, not as BatchConstruct parts.
	{`<a>{/site/people/person}</a>`, false},
	{`<a>{"x", /site/people/person}</a>`, false},
	{`<r>{for $i in (1, 2) return /site/people/person}</r>`, false},
	{`<a>{(/site/people/person)[@id = "person0"]}</a>`, false},
	{`<a>{"x", (/site/people/person)[@id = "person0"]}</a>`, false},
	{`<r>{for $i in (1, 2) return (/site/people/person)[@id = "person0"]}</r>`, false},
}

// TestPushMatchesPullAllSystems pins push emission against the pulled
// item stream: on every system, for every benchmark query and the probes
// above, SerializeSession (constructors written straight into the
// writer, gather morsels into private runs) and an ItemWriter over
// StreamSession's items must both write exactly what the sequential
// tuple-at-a-time pull writes — tuple-at-a-time and at the default width,
// sequentially and at degree 2. The reference runs no batch operator, so
// a gate push and pull share cannot hide a batch-path fault. The probes
// also pin which lets inline-let substitutes (Q9's and Q10's do). CI
// repeats it without the race detector, whose slowdown hides morsel-run
// ordering races.
func TestPushMatchesPullAllSystems(t *testing.T) {
	b := bench(t, 0.01)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		name, text string
		inline     bool
	}
	var probes []probe
	for _, q := range AllQueries() {
		probes = append(probes, probe{fmt.Sprintf("Q%d", q.ID), b.QueryText(q.ID), q.ID == 9 || q.ID == 10})
	}
	for i, p := range pushPullProbes {
		probes = append(probes, probe{fmt.Sprintf("probe %d", i), p.text, p.inline})
	}
	for _, p := range probes {
		for _, inst := range instances {
			prep, err := inst.Engine.Prepare(p.text)
			if err != nil {
				t.Fatalf("%s system %s: %v", p.name, inst.System.ID, err)
			}
			if got := strings.Contains(prep.Explain(), "inline-let"); got != p.inline {
				t.Errorf("%s system %s: inline-let fired %v, want %v:\n%s", p.name, inst.System.ID, got, p.inline, prep.Explain())
			}
			want := pullSerialize(t, prep, inst.Engine.Store(), 1, 1)
			for _, degree := range []int{1, 2} {
				for _, width := range []int{1, 0} {
					if got := serializeWith(t, prep, degree, width); got != want {
						t.Errorf("%s system %s degree %d width %d: push output differs from the reference (%d vs %d bytes)\npush: %.200s\nwant: %.200s",
							p.name, inst.System.ID, degree, width, len(got), len(want), got, want)
					}
					if got := pullSerialize(t, prep, inst.Engine.Store(), degree, width); got != want {
						t.Errorf("%s system %s degree %d width %d: pull output differs from the reference (%d vs %d bytes)\npull: %.200s\nwant: %.200s",
							p.name, inst.System.ID, degree, width, len(got), len(want), got, want)
					}
				}
			}
		}
	}
}

// TestDocumentNodeInContentAllSystems pins the document node as element
// content: it stands for the root element, so the constructed element
// holds the whole document and a child step from it reaches the root
// element — through SerializeSession and through StreamSession's items.
func TestDocumentNodeInContentAllSystems(t *testing.T) {
	b := bench(t, 0.002)
	instances, err := b.LoadAll(Systems())
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances {
		store := inst.Engine.Store()
		run := func(text string) (push, pull string) {
			prep, err := inst.Engine.Prepare(text)
			if err != nil {
				t.Fatalf("%s on %s: %v", text, inst.System.ID, err)
			}
			return serializeWith(t, prep, 1, 0), pullSerialize(t, prep, store, 1, 0)
		}
		doc, _ := run(`/`)
		if !strings.HasPrefix(doc, "<site>") {
			t.Fatalf("system %s: / serializes as %.40q", inst.System.ID, doc)
		}
		for _, c := range []struct{ text, want string }{
			{`<a>{/}</a>`, "<a>" + doc + "</a>"},
			{`<a>{document("auction.xml")}</a>`, "<a>" + doc + "</a>"},
			{`count(<a>{/}</a>/site)`, "1"},
			{`count(<a>{/}</a>//item) = count(//item)`, "true"},
		} {
			push, pull := run(c.text)
			if push != c.want {
				t.Errorf("%s on %s through SerializeSession: got %.60q (%d bytes), want %.60q (%d bytes)",
					c.text, inst.System.ID, push, len(push), c.want, len(c.want))
			}
			if pull != c.want {
				t.Errorf("%s on %s through StreamSession: got %.60q (%d bytes), want %.60q (%d bytes)",
					c.text, inst.System.ID, pull, len(pull), c.want, len(c.want))
			}
		}
	}
}
