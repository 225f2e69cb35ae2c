// Package saxparse is a streaming, non-validating XML scanner.
//
// It plays the role expat plays in the paper (§7): tokenizing the benchmark
// document and performing the normalizations and entity substitutions the
// XML standard requires, with no user-specified semantic actions of its own.
// The scanner supports exactly the XML subset the benchmark generator emits
// plus the usual incidentals (comments, processing instructions, CDATA,
// DOCTYPE), per the paper's §4.4 restriction to a performance-critical
// feature subset.
package saxparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Attr is one attribute of a start tag, with its value fully normalized
// (entity references resolved).
type Attr struct {
	Name  string
	Value string
}

// Callbacks receives scanner events. Nil members are skipped. A non-nil
// error return aborts the scan.
type Callbacks struct {
	// StartElement fires for every start tag (and for empty-element tags,
	// immediately followed by EndElement). The attrs slice is reused across
	// calls; handlers must copy it to retain it.
	StartElement func(name string, attrs []Attr) error
	// EndElement fires for every end tag.
	EndElement func(name string) error
	// CharData fires for character data runs with entities resolved.
	// Whitespace-only runs are reported too; consecutive runs are not
	// guaranteed to be coalesced.
	CharData func(text string) error
}

// SyntaxError reports a scan failure with a byte offset and line number.
type SyntaxError struct {
	Offset int
	Line   int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("saxparse: line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}

type scanner struct {
	data []byte
	pos  int
	cb   Callbacks

	attrs []Attr
	stack []string
	// scratch backs entity-decoded strings without per-token allocation.
	scratch []byte
}

// Parse scans the document in data, invoking cb for each event. It checks
// well-formedness of the element structure (tag balance) but does not
// validate against any DTD.
func Parse(data []byte, cb Callbacks) error {
	s := &scanner{data: data, cb: cb}
	return s.run()
}

func (s *scanner) errf(format string, args ...interface{}) error {
	line := 1
	for i := 0; i < s.pos && i < len(s.data); i++ {
		if s.data[i] == '\n' {
			line++
		}
	}
	return &SyntaxError{Offset: s.pos, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (s *scanner) run() error {
	sawRoot := false
	for s.pos < len(s.data) {
		if s.data[s.pos] == '<' {
			if err := s.markup(&sawRoot); err != nil {
				return err
			}
			continue
		}
		if err := s.charData(); err != nil {
			return err
		}
	}
	if len(s.stack) != 0 {
		return s.errf("unexpected end of input: <%s> not closed", s.stack[len(s.stack)-1])
	}
	if !sawRoot {
		return s.errf("no root element")
	}
	return nil
}

func (s *scanner) markup(sawRoot *bool) error {
	d := s.data
	switch {
	case hasPrefixAt(d, s.pos, "<?"):
		return s.skipUntil("?>")
	case hasPrefixAt(d, s.pos, "<!--"):
		return s.skipUntil("-->")
	case hasPrefixAt(d, s.pos, "<![CDATA["):
		return s.cdata()
	case hasPrefixAt(d, s.pos, "<!DOCTYPE"):
		return s.doctype()
	case hasPrefixAt(d, s.pos, "</"):
		return s.endTag()
	default:
		if *sawRoot && len(s.stack) == 0 {
			return s.errf("second root element")
		}
		*sawRoot = true
		return s.startTag()
	}
}

func hasPrefixAt(d []byte, i int, p string) bool {
	if i+len(p) > len(d) {
		return false
	}
	return string(d[i:i+len(p)]) == p
}

func (s *scanner) skipUntil(end string) error {
	i := strings.Index(string(s.data[s.pos:]), end)
	if i < 0 {
		return s.errf("unterminated construct (missing %q)", end)
	}
	s.pos += i + len(end)
	return nil
}

func (s *scanner) cdata() error {
	if len(s.stack) == 0 {
		return s.errf("CDATA section outside root element")
	}
	start := s.pos + len("<![CDATA[")
	i := strings.Index(string(s.data[start:]), "]]>")
	if i < 0 {
		return s.errf("unterminated CDATA section")
	}
	if err := s.checkChars(start, start+i); err != nil {
		return err
	}
	text := string(s.data[start : start+i])
	s.pos = start + i + len("]]>")
	if s.cb.CharData != nil && text != "" {
		return s.cb.CharData(text)
	}
	return nil
}

// doctype skips a DOCTYPE declaration, including an internal subset.
func (s *scanner) doctype() error {
	depth := 0
	for i := s.pos; i < len(s.data); i++ {
		switch s.data[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				s.pos = i + 1
				return nil
			}
		}
	}
	return s.errf("unterminated DOCTYPE")
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' || c == ':'
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (s *scanner) name() (string, error) {
	start := s.pos
	for s.pos < len(s.data) && isNameByte(s.data[s.pos]) {
		s.pos++
	}
	if s.pos == start {
		return "", s.errf("expected name")
	}
	return string(s.data[start:s.pos]), nil
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

func (s *scanner) startTag() error {
	s.pos++ // consume '<'
	name, err := s.name()
	if err != nil {
		return err
	}
	s.attrs = s.attrs[:0]
	for {
		s.skipSpace()
		if s.pos >= len(s.data) {
			return s.errf("unterminated start tag <%s", name)
		}
		c := s.data[s.pos]
		if c == '>' {
			s.pos++
			s.stack = append(s.stack, name)
			if s.cb.StartElement != nil {
				return s.cb.StartElement(name, s.attrs)
			}
			return nil
		}
		if c == '/' {
			if !hasPrefixAt(s.data, s.pos, "/>") {
				return s.errf("malformed empty-element tag")
			}
			s.pos += 2
			if s.cb.StartElement != nil {
				if err := s.cb.StartElement(name, s.attrs); err != nil {
					return err
				}
			}
			if s.cb.EndElement != nil {
				return s.cb.EndElement(name)
			}
			return nil
		}
		aname, err := s.name()
		if err != nil {
			return err
		}
		s.skipSpace()
		if s.pos >= len(s.data) || s.data[s.pos] != '=' {
			return s.errf("attribute %q missing '='", aname)
		}
		s.pos++
		s.skipSpace()
		if s.pos >= len(s.data) || (s.data[s.pos] != '"' && s.data[s.pos] != '\'') {
			return s.errf("attribute %q missing quoted value", aname)
		}
		quote := s.data[s.pos]
		s.pos++
		vstart := s.pos
		odd := false
		for s.pos < len(s.data) && s.data[s.pos] != quote {
			if c := s.data[s.pos]; c < 0x20 || c >= utf8.RuneSelf {
				odd = true
			}
			s.pos++
		}
		if s.pos >= len(s.data) {
			return s.errf("unterminated attribute value for %q", aname)
		}
		if odd {
			if err := s.checkChars(vstart, s.pos); err != nil {
				return err
			}
		}
		val, err := s.decode(s.data[vstart:s.pos])
		if err != nil {
			return err
		}
		s.pos++ // closing quote
		s.attrs = append(s.attrs, Attr{Name: aname, Value: val})
	}
}

func (s *scanner) endTag() error {
	s.pos += 2 // consume '</'
	name, err := s.name()
	if err != nil {
		return err
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '>' {
		return s.errf("malformed end tag </%s", name)
	}
	s.pos++
	if len(s.stack) == 0 {
		return s.errf("end tag </%s> without open element", name)
	}
	top := s.stack[len(s.stack)-1]
	if top != name {
		return s.errf("end tag </%s> does not match <%s>", name, top)
	}
	s.stack = s.stack[:len(s.stack)-1]
	if s.cb.EndElement != nil {
		return s.cb.EndElement(name)
	}
	return nil
}

func (s *scanner) charData() error {
	start := s.pos
	hasEntity, odd := false, false
	for s.pos < len(s.data) && s.data[s.pos] != '<' {
		switch c := s.data[s.pos]; {
		case c == '&':
			hasEntity = true
		case c < 0x20 || c >= utf8.RuneSelf:
			odd = true
		}
		s.pos++
	}
	if odd {
		if err := s.checkChars(start, s.pos); err != nil {
			return err
		}
	}
	if len(s.stack) == 0 {
		// Character data outside the root: only whitespace is legal.
		for _, c := range s.data[start:s.pos] {
			if !isSpace(c) {
				return s.errf("character data outside root element")
			}
		}
		return nil
	}
	raw := s.data[start:s.pos]
	if !hasEntity {
		if s.cb.CharData != nil {
			return s.cb.CharData(string(raw))
		}
		return nil
	}
	// Decode even without a CharData handler so malformed entity
	// references are always a well-formedness error.
	text, err := s.decode(raw)
	if err != nil {
		return err
	}
	if s.cb.CharData != nil {
		return s.cb.CharData(text)
	}
	return nil
}

// decode resolves entity references in raw. The predefined five and
// numeric character references are supported, per the paper's restriction
// to documents without user-defined entities (§4.4).
func (s *scanner) decode(raw []byte) (string, error) {
	amp := -1
	for i, c := range raw {
		if c == '&' {
			amp = i
			break
		}
	}
	if amp < 0 {
		return string(raw), nil
	}
	out := s.scratch[:0]
	out = append(out, raw[:amp]...)
	i := amp
	for i < len(raw) {
		c := raw[i]
		if c != '&' {
			out = append(out, c)
			i++
			continue
		}
		semi := -1
		for j := i + 1; j < len(raw) && j < i+12; j++ {
			if raw[j] == ';' {
				semi = j
				break
			}
		}
		if semi < 0 {
			return "", s.errf("unterminated entity reference")
		}
		ent := string(raw[i+1 : semi])
		switch ent {
		case "amp":
			out = append(out, '&')
		case "lt":
			out = append(out, '<')
		case "gt":
			out = append(out, '>')
		case "quot":
			out = append(out, '"')
		case "apos":
			out = append(out, '\'')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				r, err := parseCharRef(ent[1:])
				if err != nil || !isXMLChar(r) {
					return "", s.errf("bad character reference &%s;", ent)
				}
				out = append(out, string(rune(r))...)
			} else {
				return "", s.errf("unknown entity &%s;", ent)
			}
		}
		i = semi + 1
	}
	s.scratch = out
	return string(out), nil
}

// checkChars rejects raw characters in data[lo:hi] that XML's Char
// production excludes: C0 controls other than tab, newline and carriage
// return, invalid UTF-8 (encoded surrogates included, which the decoder
// refuses), and U+FFFE and U+FFFF. The scan loops call it only for a run
// that holds a control or a byte >= 0x80, so ASCII text is read once.
func (s *scanner) checkChars(lo, hi int) error {
	for i := lo; i < hi; {
		c := s.data[i]
		if c >= 0x20 && c < utf8.RuneSelf || isSpace(c) {
			i++
			continue
		}
		r, n := utf8.DecodeRune(s.data[i:hi])
		if r == utf8.RuneError && n == 1 {
			s.pos = i
			return s.errf("invalid UTF-8 byte %#x", c)
		}
		if !isXMLChar(int64(r)) {
			s.pos = i
			return s.errf("character %U not allowed in XML", r)
		}
		i += n
	}
	return nil
}

// isXMLChar reports whether a character reference or a raw character is
// one XML admits (the Char production): tab, newline, carriage return, and the
// Unicode scalar values from U+0020 on, less U+FFFE and U+FFFF.
func isXMLChar(r int64) bool {
	switch {
	case r == 0x9 || r == 0xA || r == 0xD:
		return true
	case r < 0x20 || r >= 0xD800 && r < 0xE000 || r == 0xFFFE || r == 0xFFFF:
		return false
	}
	return r <= 0x10FFFF
}

func parseCharRef(body string) (int64, error) {
	if len(body) > 1 && (body[0] == 'x' || body[0] == 'X') {
		return strconv.ParseInt(body[1:], 16, 32)
	}
	return strconv.ParseInt(body, 10, 32)
}
