package mapping

import (
	"sync"
	"testing"

	"repro/internal/tree"
)

// TestConcurrentStoreReads pins that a loaded mapping store is safe for
// concurrent read sharing: 8 goroutines hammer every navigation and
// access-path method of every mapping at once. Run with -race: the read
// path must write nothing — no counter, no lazily built index.
func TestConcurrentStoreReads(t *testing.T) {
	_, stores := buildAll(t, 0.002)
	const goroutines = 8
	for _, s := range stores {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				root := s.Root()
				var buf []tree.NodeID
				for i := 0; i < 3; i++ {
					buf = s.Children(root, buf[:0])
					for _, c := range buf {
						s.Tag(c)
						s.Kind(c)
						s.SubtreeEnd(c)
					}
					s.ChildrenByTag(root, "people", nil)
					s.Descendants(root, "item", nil)
					s.TagExtent("person", nil)
					s.PathExtent([]string{"site", "people", "person"}, nil)
					s.AttrLookup("id", "person0")
					s.Attr(root, "id")
					s.Attrs(root)
					s.StringValue(root)
					s.InlinedChildText(root, "name")
				}
			}()
		}
		wg.Wait()
	}
}
