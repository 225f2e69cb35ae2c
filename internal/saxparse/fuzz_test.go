package saxparse_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/saxparse"
	"repro/internal/tree"
	"repro/internal/xmlgen"
)

// event is one scanner event: a start tag with its attributes, an end
// tag, or a run of character data (in name).
type event struct {
	kind  string // "start", "end", "text"
	name  string
	attrs []saxparse.Attr
}

// FuzzSaxparse checks the scanner on arbitrary bytes: it never panics, it
// fails only with a *SyntaxError, and a document it accepts has one root
// element, balanced and matching tags, text and attribute values made only
// of characters XML admits, and means what it says — writing its events
// back out as XML and scanning that again reproduces the same events. The corpus is
// seeded with a small document cut from a generated one (its first item,
// person and auctions, each also alone) and the incidentals the scanner
// supports: whole generated documents are tens of kilobytes, too big for
// the fuzzer to mutate and minimize quickly. Inputs it once failed on live
// in testdata/fuzz/FuzzSaxparse, where plain go test replays them.
func FuzzSaxparse(f *testing.F) {
	doc := xmlgen.New(xmlgen.Options{Factor: 0.0002}).String()
	site := "<site>"
	for _, tag := range []string{"item", "person", "open_auction", "closed_auction"} {
		start := strings.Index(doc, "<"+tag+" ")
		if start < 0 {
			start = strings.Index(doc, "<"+tag+">")
		}
		end := start + strings.Index(doc[start:], "</"+tag+">") + len("</"+tag+">")
		f.Add(doc[start:end])
		site += doc[start:end]
	}
	f.Add(site + "</site>")
	for _, s := range []string{
		`<?xml version="1.0"?><!DOCTYPE site [<!ELEMENT site ANY>]><!-- c --><site/>`,
		`<a x='1' y="&quot;&#65;&#x42;">t &amp; &lt;u&gt;<![CDATA[<raw>]]><?pi x?></a>`,
		"<a>\r\n\t<b/></a>\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := scanEvents([]byte(in))
		if err != nil {
			var se *saxparse.SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("error is not a *SyntaxError: %v", err)
			}
			return
		}
		var open []string
		roots := 0
		for _, ev := range evs {
			switch ev.kind {
			case "start":
				if len(open) == 0 {
					roots++
				}
				open = append(open, ev.name)
				for _, a := range ev.attrs {
					if !xmlChars(a.Value) {
						t.Fatalf("accepted attribute %s=%q, which holds a character XML excludes", a.Name, a.Value)
					}
				}
			case "text":
				if !xmlChars(ev.name) {
					t.Fatalf("accepted text %q, which holds a character XML excludes", ev.name)
				}
			case "end":
				if len(open) == 0 || open[len(open)-1] != ev.name {
					t.Fatalf("end tag %q does not match the open elements %v", ev.name, open)
				}
				open = open[:len(open)-1]
			}
		}
		if len(open) != 0 || roots != 1 {
			t.Fatalf("accepted with %d root elements and %v left open", roots, open)
		}
		out := writeEvents(evs)
		again, err := scanEvents(out)
		if err != nil {
			t.Fatalf("the events written back do not scan: %v\n%s", err, out)
		}
		if !slices.EqualFunc(evs, again, eventEqual) {
			t.Fatalf("the events written back scan differently:\n%v\n%v", evs, again)
		}
	})
}

// scanEvents scans data into its events, adjacent character data
// coalesced (the scanner may split a run).
func scanEvents(data []byte) ([]event, error) {
	var evs []event
	err := saxparse.Parse(data, saxparse.Callbacks{
		StartElement: func(name string, attrs []saxparse.Attr) error {
			evs = append(evs, event{kind: "start", name: name, attrs: slices.Clone(attrs)})
			return nil
		},
		EndElement: func(name string) error {
			evs = append(evs, event{kind: "end", name: name})
			return nil
		},
		CharData: func(text string) error {
			if n := len(evs); n > 0 && evs[n-1].kind == "text" {
				evs[n-1].name += text
			} else {
				evs = append(evs, event{kind: "text", name: text})
			}
			return nil
		},
	})
	return evs, err
}

// writeEvents serializes events as XML with the repository's escapers.
func writeEvents(evs []event) []byte {
	var b []byte
	for _, ev := range evs {
		switch ev.kind {
		case "start":
			b = append(b, '<')
			b = append(b, ev.name...)
			for _, a := range ev.attrs {
				b = append(b, ' ')
				b = append(b, a.Name...)
				b = append(b, `="`...)
				b = tree.AppendEscapedAttr(b, a.Value)
				b = append(b, '"')
			}
			b = append(b, '>')
		case "end":
			b = append(b, "</"...)
			b = append(b, ev.name...)
			b = append(b, '>')
		default:
			b = tree.AppendEscapedText(b, ev.name)
		}
	}
	return b
}

// xmlChars reports whether s is UTF-8 made only of characters XML's Char
// production admits: tab, newline, carriage return and U+0020 on, less
// U+FFFE and U+FFFF (valid UTF-8 cannot encode a surrogate).
func xmlChars(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

func eventEqual(a, b event) bool {
	return a.kind == b.kind && a.name == b.name && slices.Equal(a.attrs, b.attrs)
}
