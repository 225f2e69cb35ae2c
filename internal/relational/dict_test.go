package relational

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/words"
)

// dictCorpus draws a Zipf-skewed sample from the generator's vocabulary —
// the exact string population the mappings dictionarize at load time, with
// the duplication profile real documents have.
func dictCorpus(label string, n int) []string {
	s := rng.New(0xd1c7).Derive(label)
	out := make([]string, n)
	for i := range out {
		out[i] = words.Word(s)
	}
	return out
}

// TestDictRoundTripProperty pins the encode/decode contract over the words
// corpus: Intern is idempotent, Name inverts it exactly, Code agrees with
// Intern, codes are dense in insertion order, and Len counts distinct
// values only.
func TestDictRoundTripProperty(t *testing.T) {
	corpus := dictCorpus("roundtrip", 20000)
	d := NewDict()
	distinct := make(map[string]int32)
	for _, w := range corpus {
		c := d.Intern(w)
		if prev, seen := distinct[w]; seen {
			if c != prev {
				t.Fatalf("Intern(%q) unstable: %d then %d", w, prev, c)
			}
		} else {
			// First sight: the next dense code.
			if int(c) != len(distinct) {
				t.Fatalf("Intern(%q) = %d, want dense %d", w, c, len(distinct))
			}
			distinct[w] = c
		}
		if got := d.Name(c); got != w {
			t.Fatalf("Name(Intern(%q)) = %q", w, got)
		}
		if cc, ok := d.Code(w); !ok || cc != c {
			t.Fatalf("Code(%q) = (%d,%v), Intern said %d", w, cc, ok, c)
		}
	}
	if d.Len() != len(distinct) {
		t.Fatalf("Len() = %d, distinct = %d", d.Len(), len(distinct))
	}
	if _, ok := d.Code("never-interned-value"); ok {
		t.Fatal("Code hit on a value never interned")
	}
	// Decoding slices the arena and probing reads the slot table: neither
	// allocates.
	var sink string
	if allocs := testing.AllocsPerRun(100, func() {
		sink = d.Name(int32(d.Len() - 1))
		_, _ = d.Code(sink)
		_, _ = d.Code("never-interned-value")
	}); allocs != 0 {
		t.Fatalf("Name and Code allocate %v times per run", allocs)
	}
	// Every code decodes, and decoding is a bijection over [0, Len).
	seen := make(map[string]bool, d.Len())
	for c := int32(0); int(c) < d.Len(); c++ {
		w := d.Name(c)
		if seen[w] {
			t.Fatalf("code %d decodes to duplicate value %q", c, w)
		}
		seen[w] = true
		if cc, ok := d.Code(w); !ok || cc != c {
			t.Fatalf("Code(Name(%d)) = (%d,%v)", c, cc, ok)
		}
	}
}

// TestDictCodesCrossShards pins the boundary half of the contract: two
// dictionaries built over overlapping corpora in different insertion
// orders (two shard territories of a split document) assign the SAME
// string DIFFERENT codes, so any cross-shard comparison — the
// scatter-gather merge above all — must compare decoded values, never
// codes. The test demonstrates both failure and fix: code-ordered merge
// output diverges between shardings, decoded-value merge is identical.
func TestDictCodesCrossShards(t *testing.T) {
	corpus := dictCorpus("shards", 4000)
	// Two territories with overlapping vocabulary: even/odd interleave
	// means most frequent words appear in both, interned at different
	// moments, hence under different codes.
	left, right := NewDict(), NewDict()
	var leftCodes, rightCodes []int32
	for i, w := range corpus {
		if i%2 == 0 {
			leftCodes = append(leftCodes, left.Intern(w))
		} else {
			rightCodes = append(rightCodes, right.Intern(w))
		}
	}

	// Property: the same string carries different codes across shards for
	// at least one shared value (insertion orders differ), so codes are
	// provably not comparable across the boundary.
	diverged := false
	for c := int32(0); int(c) < left.Len(); c++ {
		w := left.Name(c)
		if rc, ok := right.Code(w); ok && rc != c {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("shard dictionaries agree on every shared code; corpus does not exercise the boundary")
	}

	// The merge, done wrong: ordering each shard's rows by code and
	// comparing codes across shards. Done right: decode, compare strings.
	// The right way must reproduce exactly the order a single unsharded
	// dictionary-free sort produces.
	want := make([]string, 0, len(corpus))
	want = append(want, corpus...)
	sort.Strings(want)

	decoded := make([]string, 0, len(corpus))
	for _, c := range leftCodes {
		decoded = append(decoded, left.Name(c))
	}
	for _, c := range rightCodes {
		decoded = append(decoded, right.Name(c))
	}
	sort.Strings(decoded)
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("decoded-value merge diverges from unsharded order at %d: %q vs %q",
				i, decoded[i], want[i])
		}
	}

	// And the wrong way really is wrong: there exist rows where the code
	// comparison and the decoded comparison disagree about order — the
	// witness that a code-comparing merge would corrupt results.
	witness := false
	for _, lc := range leftCodes {
		for _, rc := range rightCodes {
			codeLess := lc < rc
			valLess := left.Name(lc) < right.Name(rc)
			if codeLess != valLess {
				witness = true
				break
			}
		}
		if witness {
			break
		}
	}
	if !witness {
		t.Fatal("cross-shard code order happens to agree with value order everywhere; corpus too small to witness the hazard")
	}
}

// TestDictAliasedPayloadNotCounted: a value first seen through InternSpan
// costs the dictionary a span and a slot, never its payload; a value the
// dictionary already owns stays counted however it is seen again. A sealed
// twin dictionary that owns both values is larger by exactly the aliased
// payload, so the check holds whatever the span and slot vectors cost.
func TestDictAliasedPayloadNotCounted(t *testing.T) {
	heap := "goldsilver"
	d := NewDictOver(heap)
	owned := d.Intern("gold")
	one := d.SizeBytes()
	if empty := NewDict().SizeBytes(); one < empty+4 {
		t.Fatalf("one owned value: %d bytes, empty dictionary %d", one, empty)
	}
	if c := d.InternSpan(0, 4); c != owned || d.SizeBytes() != one {
		t.Fatalf("aliased re-intern got code %d (want %d), size %d (want %d)", c, owned, d.SizeBytes(), one)
	}
	c := d.InternSpan(4, 10)
	if d.Name(c) != "silver" || d.InternSpan(4, 10) != c || d.Intern("silver") != c {
		t.Fatal("aliased value does not round-trip")
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = d.Name(c) }); allocs != 0 || sink != heap[4:] {
		t.Fatalf("Name of a heap span allocates %v times per run", allocs)
	}
	twin := NewDict()
	twin.Intern("gold")
	twin.Intern("silver")
	d.Seal()
	twin.Seal()
	if got := twin.SizeBytes() - d.SizeBytes(); got != int64(len("silver")) {
		t.Fatalf("owning the second value costs %d bytes more than aliasing it, want %d", got, len("silver"))
	}
}

// TestDictSealedRejectsUnseen pins the end of interning. After Seal a value
// the dictionary holds still interns to its code, through Intern or a
// table's Append, and Code answers as before; an unseen value panics with
// a message naming it, the way Append rejects a value outside int32, and
// so does a CodeVal that is no code of the table's dictionary. Neither
// rejection changes the dictionary or the table.
func TestDictSealedRejectsUnseen(t *testing.T) {
	d := NewDictOver("goldsilver")
	gold := d.InternSpan(0, 4)
	empty := d.Intern("")
	tab := NewTableShared("t", Schema{{"k", Int}, {"v", String}}, d)
	d.Seal()
	if d.Intern("gold") != gold || d.InternSpan(0, 4) != gold || d.Intern("") != empty {
		t.Fatal("a held value interns to another code after the seal")
	}
	tab.Append(IntVal(1), StringVal("gold"))
	tab.Append(IntVal(2), CodeVal(empty))
	for _, tc := range []struct {
		label, want string
		do          func()
	}{
		{"Intern", `"silver"`, func() { d.Intern("silver") }},
		{"InternSpan", `"silver"`, func() { d.InternSpan(4, 10) }},
		{"Append", `"bronze"`, func() { tab.Append(IntVal(3), StringVal("bronze")) }},
		{"Append CodeVal", "code 2 of t.v", func() { tab.Append(IntVal(3), CodeVal(2)) }},
		{"Append negative CodeVal", "code -1 of t.v", func() { tab.Append(IntVal(3), CodeVal(-1)) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one naming %s", tc.label, msg, tc.want)
				}
			}()
			tc.do()
		}()
	}
	if d.Len() != 2 {
		t.Errorf("rejected values grew the dictionary to %d values", d.Len())
	}
	if tab.Len() != 2 || len(tab.IntCol(0)) != 2 || len(tab.CodeCol(1)) != 2 {
		t.Errorf("rejected rows changed the table: %d rows, columns %d/%d", tab.Len(), len(tab.IntCol(0)), len(tab.CodeCol(1)))
	}
	if tab.Str(0, 1) != "gold" || tab.Str(1, 1) != "" {
		t.Errorf("rows read back as %q, %q", tab.Str(0, 1), tab.Str(1, 1))
	}
}
