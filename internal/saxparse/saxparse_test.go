package saxparse

import (
	"strings"
	"testing"

	"repro/internal/xmlgen"
)

// record collects events for assertions.
type event struct {
	kind  string // "start", "end", "text"
	name  string
	attrs []Attr
}

func collect(t *testing.T, doc string) []event {
	t.Helper()
	var evs []event
	err := Parse([]byte(doc), Callbacks{
		StartElement: func(name string, attrs []Attr) error {
			cp := make([]Attr, len(attrs))
			copy(cp, attrs)
			evs = append(evs, event{kind: "start", name: name, attrs: cp})
			return nil
		},
		EndElement: func(name string) error {
			evs = append(evs, event{kind: "end", name: name})
			return nil
		},
		CharData: func(text string) error {
			evs = append(evs, event{kind: "text", name: text})
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Parse failed: %v", err)
	}
	return evs
}

func TestSimpleDocument(t *testing.T) {
	evs := collect(t, `<a x="1"><b>hi</b><c/></a>`)
	want := []event{
		{kind: "start", name: "a", attrs: []Attr{{"x", "1"}}},
		{kind: "start", name: "b"},
		{kind: "text", name: "hi"},
		{kind: "end", name: "b"},
		{kind: "start", name: "c"},
		{kind: "end", name: "c"},
		{kind: "end", name: "a"},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i].kind != want[i].kind || evs[i].name != want[i].name {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if len(evs[0].attrs) != 1 || evs[0].attrs[0] != (Attr{"x", "1"}) {
		t.Fatalf("attrs = %+v", evs[0].attrs)
	}
}

func TestPrologCommentsPIs(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!-- a comment -->
<!DOCTYPE site SYSTEM "auction.dtd" [ <!ENTITY x "y"> ]>
<root><?pi data?><!-- inner --><leaf/></root>`
	evs := collect(t, doc)
	names := []string{}
	for _, e := range evs {
		if e.kind == "start" {
			names = append(names, e.name)
		}
	}
	if strings.Join(names, ",") != "root,leaf" {
		t.Fatalf("start elements = %v", names)
	}
}

func TestEntityDecoding(t *testing.T) {
	evs := collect(t, `<a t="&lt;&amp;&quot;">x &gt; y &#65;&#x42;</a>`)
	if evs[0].attrs[0].Value != `<&"` {
		t.Fatalf("attr value = %q", evs[0].attrs[0].Value)
	}
	var text strings.Builder
	for _, e := range evs {
		if e.kind == "text" {
			text.WriteString(e.name)
		}
	}
	if text.String() != "x > y AB" {
		t.Fatalf("text = %q", text.String())
	}
}

func TestCDATA(t *testing.T) {
	evs := collect(t, `<a><![CDATA[<raw & data>]]></a>`)
	found := false
	for _, e := range evs {
		if e.kind == "text" && e.name == "<raw & data>" {
			found = true
		}
	}
	if !found {
		t.Fatalf("CDATA content not reported: %+v", evs)
	}
}

// TestNonASCIIText pins what the raw-character check must keep accepting:
// multi-byte UTF-8 (a literal U+FFFD included), tab, newline and carriage
// return, in character data, attribute values and CDATA.
func TestNonASCIIText(t *testing.T) {
	evs := collect(t, "<a b='\tgrö\u00dfe\uFFFD'>\r\ncafé 😀<![CDATA[ü\n]]></a>")
	if v := evs[0].attrs[0].Value; v != "\tgrö\u00dfe\uFFFD" {
		t.Fatalf("attribute = %q", v)
	}
	var text string
	for _, e := range evs {
		if e.kind == "text" {
			text += e.name
		}
	}
	if text != "\r\ncafé 😀ü\n" {
		t.Fatalf("text = %q", text)
	}
}

func TestAttributeQuoting(t *testing.T) {
	evs := collect(t, `<a one='single' two = "spaced"/>`)
	if evs[0].attrs[0].Value != "single" || evs[0].attrs[1].Value != "spaced" {
		t.Fatalf("attrs = %+v", evs[0].attrs)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		label string
		doc   string
	}{
		{"mismatched tags", "<a><b></a></b>"},
		{"unclosed root", "<a><b></b>"},
		{"stray end tag", "</a>"},
		{"text outside root", "hello<a/>"},
		{"unterminated start", "<a"},
		{"unterminated attr", `<a x="1`},
		{"missing equals", `<a x "1"/>`},
		{"unknown entity", "<a>&nope;</a>"},
		{"unterminated comment", "<!-- <a/>"},
		{"no root", "<!-- only a comment -->"},
		{"unterminated cdata", "<a><![CDATA[x</a>"},
		{"cdata before root", "<![CDATA[x]]><a/>"},
		{"cdata after root", "<a/><![CDATA[ ]]>"},
		{"second root", "<a/><b/>"},
		{"negative char ref", "<a>&#-5;</a>"},
		{"nul char ref", "<a>&#0;</a>"},
		{"surrogate char ref", "<a>&#xD800;</a>"},
		{"char ref past unicode", `<a x="&#x110000;"/>`},
		{"raw control in text", "<a>\x01</a>"},
		{"raw nul in attribute", "<a b='\x00'/>"},
		{"raw control in cdata", "<a><![CDATA[x\x1fy]]></a>"},
		{"invalid utf-8 in text", "<a>\xff\xfe</a>"},
		{"truncated utf-8 in text", "<a>caf\xc3</a>"},
		{"encoded surrogate in text", "<a>\xed\xa0\x80</a>"},
		{"invalid utf-8 in attribute", "<a b=\"\x80\"/>"},
		{"invalid utf-8 in cdata", "<a><![CDATA[\xc0\xaf]]></a>"},
		{"raw U+FFFE in text", "<a>\uFFFE</a>"},
		{"raw U+FFFF in attribute", "<a b='\uFFFF'/>"},
	}
	for _, c := range cases {
		err := Parse([]byte(c.doc), Callbacks{})
		if err == nil {
			t.Errorf("%s: no error", c.label)
			continue
		}
		if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("%s: error is %T, want *SyntaxError", c.label, err)
		}
	}
}

func TestErrorLineNumbers(t *testing.T) {
	err := Parse([]byte("<a>\n<b>\n</a>"), Callbacks{})
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if se.Line != 3 {
		t.Fatalf("error line = %d, want 3", se.Line)
	}
}

func TestCallbackErrorAborts(t *testing.T) {
	calls := 0
	sentinel := &SyntaxError{Msg: "stop"}
	err := Parse([]byte("<a><b/><c/></a>"), Callbacks{
		StartElement: func(name string, attrs []Attr) error {
			calls++
			if name == "b" {
				return sentinel
			}
			return nil
		},
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestParsesGeneratedDocument(t *testing.T) {
	doc := xmlgen.New(xmlgen.Options{Factor: 0.005}).String()
	starts, ends := 0, 0
	err := Parse([]byte(doc), Callbacks{
		StartElement: func(string, []Attr) error { starts++; return nil },
		EndElement:   func(string) error { ends++; return nil },
	})
	if err != nil {
		t.Fatalf("generated document failed to parse: %v", err)
	}
	if starts == 0 || starts != ends {
		t.Fatalf("starts=%d ends=%d", starts, ends)
	}
}

func TestBalancePropertyOnGeneratedDocs(t *testing.T) {
	// Property: for any factor, every start has a matching end and depth
	// never goes negative.
	for _, f := range []float64{0.001, 0.002, 0.004} {
		doc := xmlgen.New(xmlgen.Options{Factor: f}).String()
		depth := 0
		err := Parse([]byte(doc), Callbacks{
			StartElement: func(string, []Attr) error { depth++; return nil },
			EndElement: func(string) error {
				depth--
				if depth < 0 {
					t.Fatal("negative depth")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("factor %v: %v", f, err)
		}
		if depth != 0 {
			t.Fatalf("factor %v: final depth %d", f, depth)
		}
	}
}
