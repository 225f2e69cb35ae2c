// Package xmark is the core of the benchmark reproduction: the twenty
// XMark queries (§6 of the paper), the seven system architectures of the
// evaluation (§7), and the harness that regenerates every table and figure.
package xmark

import (
	"fmt"
	"strings"

	"repro/internal/words"
	"repro/internal/xmlgen"
)

// QuerySpec describes one benchmark query.
type QuerySpec struct {
	// ID is the query number: 1 through 20 are the paper's, 21+ the
	// hybrid extensions.
	ID int
	// Concept is the section heading the paper groups the query under.
	Concept string
	// Description is the paper's natural-language statement of the query.
	Description string
	// text is the XQuery source, possibly with cardinality-dependent
	// placeholders (Q4's person constants).
	text string
}

// Text returns the query source for a document with the given
// cardinalities. Q4's person constants scale with the document so the
// query stays meaningful at tiny factors (the paper fixes person18/person87
// for factor 1.0; the ratio is preserved).
func (q QuerySpec) Text(c xmlgen.Cardinalities) string {
	s := q.text
	if strings.Contains(s, "%PERSON_A%") {
		a := c.People / 5
		b := c.People / 3
		if b == a {
			b = a + 1
		}
		s = strings.ReplaceAll(s, "%PERSON_A%", fmt.Sprintf("person%d", a))
		s = strings.ReplaceAll(s, "%PERSON_B%", fmt.Sprintf("person%d", b))
	}
	if strings.Contains(s, "%FT_WORD%") {
		// A frequent vocabulary word, resolved through the generator's
		// deterministic word synthesis — generated spellings never appear
		// in source, only their ranks.
		s = strings.ReplaceAll(s, "%FT_WORD%", words.WordAt(2))
	}
	return s
}

// Queries returns all twenty benchmark queries in order.
func Queries() []QuerySpec { return querySpecs }

// Query returns the query with the given 1-based ID: 1-20 are the paper's
// queries, 21+ the hybrid keyword+structure extensions.
func Query(id int) QuerySpec { return allSpecs[id-1] }

// HybridQueries returns the keyword+structure extension queries (IDs
// 21+): the Q14 full-text concept crossed with structural navigation,
// the workload the inverted text index accelerates. Every one is a
// plain XQuery the scan path answers identically — the index changes
// plans, never bytes.
func HybridQueries() []QuerySpec { return hybridSpecs }

// AllQueries returns every numbered query in ID order: the paper's
// twenty followed by the hybrid extensions, the set the service catalog
// serves and VerifyAll cross-checks.
func AllQueries() []QuerySpec { return allSpecs }

var allSpecs = append(append([]QuerySpec(nil), querySpecs...), hybridSpecs...)

// ParallelQueryIDs are the scan-heavy queries the (degree, width)
// identity sweep composes morsel parallelism with vectorization on. Q1
// stays an attribute-index lookup on every indexed system (there is
// nothing left to parallelize) and Q19's order by is a pipeline breaker,
// so both document the sequential boundary of the morsel model; Q5, Q14
// and Q20 are the big extent scans that partition.
var ParallelQueryIDs = []int{1, 5, 14, 19, 20}

// FulltextQueryIDs are the keyword-workload family: Q14 (the paper's
// full-text query) and the hybrid keyword+structure extensions Q21-Q23.
var FulltextQueryIDs = []int{14, 21, 22, 23}

var hybridSpecs = []QuerySpec{
	{
		ID: 21, Concept: "Hybrid Full Text",
		Description: "Return the names of items whose description mentions 'gold', as a pure path query.",
		text:        `//item[contains(description, "gold")]/name`,
	},
	{
		ID: 22, Concept: "Hybrid Full Text",
		Description: "Return the names of items whose description contains both 'gold' and a frequent vocabulary word (postings intersection).",
		text: `for $i in /site//item
where contains(string(exactly-one($i/description)), "gold") and contains(string(exactly-one($i/description)), "%FT_WORD%")
return $i/name/text()`,
	},
	{
		ID: 23, Concept: "Hybrid Full Text",
		Description: "Return the senders of mails in item mailboxes whose body mentions 'gold' (keyword under a structural chain).",
		text: `for $m in /site/regions//item/mailbox/mail
where contains(string(exactly-one($m/text)), "gold")
return $m/from/text()`,
	},
}

var querySpecs = []QuerySpec{
	{
		ID: 1, Concept: "Exact Match",
		Description: "Return the name of the person with ID 'person0'.",
		text: `for $b in /site/people/person[@id="person0"]
return $b/name/text()`,
	},
	{
		ID: 2, Concept: "Ordered Access",
		Description: "Return the initial increases of all open auctions.",
		text: `for $b in /site/open_auctions/open_auction
return <increase>{$b/bidder[1]/increase/text()}</increase>`,
	},
	{
		ID: 3, Concept: "Ordered Access",
		Description: "Return the first and current increases of all open auctions whose current increase is at least twice as high as the initial increase.",
		text: `for $b in /site/open_auctions/open_auction
where zero-or-one($b/bidder[1]/increase/text()) * 2 <= $b/bidder[last()]/increase/text()
return <increase first="{$b/bidder[1]/increase/text()}" last="{$b/bidder[last()]/increase/text()}"/>`,
	},
	{
		ID: 4, Concept: "Ordered Access",
		Description: "List the reserves of those open auctions where a certain person issued a bid before another person.",
		text: `for $b in /site/open_auctions/open_auction
where some $pr1 in $b/bidder/personref[@person="%PERSON_A%"],
           $pr2 in $b/bidder/personref[@person="%PERSON_B%"]
      satisfies $pr1 << $pr2
return <history>{$b/reserve/text()}</history>`,
	},
	{
		ID: 5, Concept: "Casting",
		Description: "How many sold items cost more than 40?",
		text: `count(for $i in /site/closed_auctions/closed_auction
where $i/price/text() >= 40
return $i/price)`,
	},
	{
		ID: 6, Concept: "Regular Path Expressions",
		Description: "How many items are listed on all continents?",
		text:        `for $b in //site/regions return count($b//item)`,
	},
	{
		ID: 7, Concept: "Regular Path Expressions",
		Description: "How many pieces of prose are in our database?",
		text: `for $p in /site
return count($p//description) + count($p//annotation) + count($p//emailaddress)`,
	},
	{
		ID: 8, Concept: "Chasing References",
		Description: "List the names of persons and the number of items they bought.",
		text: `for $p in /site/people/person
let $a := for $t in /site/closed_auctions/closed_auction
          where $t/buyer/@person = $p/@id
          return $t
return <item person="{$p/name/text()}">{count($a)}</item>`,
	},
	{
		ID: 9, Concept: "Chasing References",
		Description: "List the names of persons and the names of the items they bought in Europe.",
		text: `for $p in /site/people/person
let $a := for $t in /site/closed_auctions/closed_auction
          let $n := for $t2 in /site/regions/europe/item
                    where $t/itemref/@item = $t2/@id
                    return $t2
          where $p/@id = $t/buyer/@person
          return <item>{$n/name/text()}</item>
return <person name="{$p/name/text()}">{$a}</person>`,
	},
	{
		ID: 10, Concept: "Construction of Complex Results",
		Description: "List all persons according to their interest; use French markup in the result.",
		text: `for $i in distinct-values(/site/people/person/profile/interest/@category)
let $p := for $t in /site/people/person
          where $t/profile/interest/@category = $i
          return <personne>
              <statistiques>
                  <sexe>{$t/profile/gender/text()}</sexe>
                  <age>{$t/profile/age/text()}</age>
                  <education>{$t/profile/education/text()}</education>
                  <revenu>{$t/profile/@income}</revenu>
              </statistiques>
              <coordonnees>
                  <nom>{$t/name/text()}</nom>
                  <rue>{$t/address/street/text()}</rue>
                  <ville>{$t/address/city/text()}</ville>
                  <pays>{$t/address/country/text()}</pays>
                  <reseau>
                      <courrier>{$t/emailaddress/text()}</courrier>
                      <pagePerso>{$t/homepage/text()}</pagePerso>
                  </reseau>
              </coordonnees>
              <cartePaiement>{$t/creditcard/text()}</cartePaiement>
          </personne>
return <categorie>{<id>{$i}</id>, $p}</categorie>`,
	},
	{
		ID: 11, Concept: "Joins on Values",
		Description: "For each person, list the number of items currently on sale whose price does not exceed 0.02% of the person's income.",
		text: `for $p in /site/people/person
let $l := for $i in /site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * exactly-one($i/text())
          return $i
return <items name="{$p/name/text()}">{count($l)}</items>`,
	},
	{
		ID: 12, Concept: "Joins on Values",
		Description: "For each person with an income of more than 50000, list the number of items currently on sale whose price does not exceed 0.02% of the person's income.",
		text: `for $p in /site/people/person
let $l := for $i in /site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * exactly-one($i/text())
          return $i
where $p/profile/@income > 50000
return <items person="{$p/profile/@income}">{count($l)}</items>`,
	},
	{
		ID: 13, Concept: "Reconstruction",
		Description: "List the names of items registered in Australia along with their descriptions.",
		text: `for $i in /site/regions/australia/item
return <item name="{$i/name/text()}">{$i/description}</item>`,
	},
	{
		ID: 14, Concept: "Full Text",
		Description: "Return the names of all items whose description contains the word 'gold'.",
		text: `for $i in /site//item
where contains(string(exactly-one($i/description)), "gold")
return $i/name/text()`,
	},
	{
		ID: 15, Concept: "Path Traversals",
		Description: "Print the keywords in emphasis in annotations of closed auctions.",
		text: `for $a in /site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()
return <text>{$a}</text>`,
	},
	{
		ID: 16, Concept: "Path Traversals",
		Description: "Return the IDs of the sellers of those auctions that have one or more keywords in emphasis.",
		text: `for $a in /site/closed_auctions/closed_auction
where not(empty($a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()))
return <person id="{$a/seller/@person}"/>`,
	},
	{
		ID: 17, Concept: "Missing Elements",
		Description: "Which persons don't have a homepage?",
		text: `for $p in /site/people/person
where empty($p/homepage/text())
return <person name="{$p/name/text()}"/>`,
	},
	{
		ID: 18, Concept: "Function Application",
		Description: "Convert the currency of the reserves of all open auctions to another currency.",
		text: `declare function local:convert($v) { 2.20371 * $v };
for $i in /site/open_auctions/open_auction
return local:convert(zero-or-one($i/reserve/text()))`,
	},
	{
		ID: 19, Concept: "Sorting",
		Description: "Give an alphabetically ordered list of all items along with their location.",
		text: `for $b in /site/regions//item
let $k := $b/name/text()
order by zero-or-one($b/location/text()) ascending
return <item name="{$k}">{$b/location/text()}</item>`,
	},
	{
		ID: 20, Concept: "Aggregation",
		Description: "Group customers by their income and output the cardinality of each group.",
		text: `<result>
 <preferred>{count(/site/people/person/profile[@income >= 100000])}</preferred>
 <standard>{count(/site/people/person/profile[@income < 100000 and @income >= 30000])}</standard>
 <challenge>{count(/site/people/person/profile[@income < 30000])}</challenge>
 <na>{count(for $p in /site/people/person where empty($p/profile/@income) return $p)}</na>
</result>`,
	},
}
