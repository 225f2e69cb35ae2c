package xmark

import (
	"testing"
)

// numericJoinDoc pairs incomes and initial prices that are equal as
// numbers but not as strings ("5000.00" = 5000, "7" = 7.0).
const numericJoinDoc = `<site><people>` +
	`<person id="p0"><profile income="5000.00"/></person>` +
	`<person id="p1"><profile income="7"/></person>` +
	`</people><open_auctions>` +
	`<open_auction id="o0"><initial>5000</initial></open_auction>` +
	`<open_auction id="o1"><initial>7.0</initial></open_auction>` +
	`</open_auctions></site>`

// TestNumericEqualityJoinMatchesNestedLoop checks equality joins where one
// side is a number: general comparison then compares numerically, which a
// join keyed by the string form of its values would miss. Every system,
// at width 1 and the default width, must answer what System G's nested
// loop answers, for the key written on either side of = and bound
// through a let.
func TestNumericEqualityJoinMatchesNestedLoop(t *testing.T) {
	forms := []string{
		`for $p in /site/people/person, $o in /site/open_auctions/open_auction
		 where number($p/profile/@income) = $o/initial return string($p/@id)`,
		`for $p in /site/people/person, $o in /site/open_auctions/open_auction
		 where $o/initial = number($p/profile/@income) return string($p/@id)`,
		`for $p in /site/people/person let $n := number($p/profile/@income)
		 for $o in /site/open_auctions/open_auction
		 where $n = $o/initial return string($p/@id)`,
		`for $o in /site/open_auctions/open_auction, $p in /site/people/person
		 where number($p/profile/@income) = $o/initial return string($o/@id)`,
	}
	var instances []*Instance
	for _, sys := range Systems() {
		inst, err := sys.Load([]byte(numericJoinDoc))
		if err != nil {
			t.Fatalf("system %s: %v", sys.ID, err)
		}
		instances = append(instances, inst)
	}
	ref := instances[len(instances)-1]
	if ref.System.ID != "G" {
		t.Fatalf("last system is %s, want the nested-loop System G", ref.System.ID)
	}
	for fi, text := range forms {
		refPrep, err := ref.Engine.Prepare(text)
		if err != nil {
			t.Fatalf("form %d: %v", fi, err)
		}
		want := serializeWith(t, refPrep, 1, 1)
		if len(want) != len("p0 p1") {
			t.Fatalf("form %d: reference answered %q, want both matches", fi, want)
		}
		for _, inst := range instances {
			prep, err := inst.Engine.Prepare(text)
			if err != nil {
				t.Fatalf("form %d system %s: %v", fi, inst.System.ID, err)
			}
			for _, width := range []int{1, 0} {
				if got := serializeWith(t, prep, 1, width); got != want {
					t.Errorf("form %d system %s width %d: got %q, want %q", fi, inst.System.ID, width, got, want)
				}
			}
		}
	}
}
