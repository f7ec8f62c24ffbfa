package paging

import (
	"sort"
	"testing"
)

// TestCacheSurface exercises the full Cache interface surface (Name, Cap,
// Items, Reset) on every implementation, including the sequence-bound MIN.
func TestCacheSurface(t *testing.T) {
	seq := []uint64{5, 9, 5, 2, 7, 9, 2}
	caches := map[string]Cache{
		"lru":     NewLRU(3),
		"fifo":    NewFIFO(3),
		"marking": NewMarking(3, 1),
		"random":  NewRandomEvict(3, 1),
		"min":     NewMIN(3, seq),
	}
	for name, c := range caches {
		t.Run(name, func(t *testing.T) {
			if c.Name() == "" {
				t.Error("empty Name")
			}
			if c.Cap() != 3 {
				t.Errorf("Cap = %d", c.Cap())
			}
			for _, it := range seq {
				c.Access(it)
			}
			items := c.Items()
			if len(items) != c.Len() {
				t.Fatalf("Items() has %d entries, Len() = %d", len(items), c.Len())
			}
			sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
			for i := 1; i < len(items); i++ {
				if items[i] == items[i-1] {
					t.Fatalf("duplicate item %d in Items()", items[i])
				}
			}
			for _, it := range items {
				if !c.Contains(it) {
					t.Fatalf("Items() reports %d but Contains is false", it)
				}
			}
			c.Reset()
			if c.Len() != 0 || len(c.Items()) != 0 {
				t.Fatal("Reset did not clear")
			}
			// A sequence-bound cache must replay identically after Reset.
			for _, it := range seq {
				c.Access(it)
			}
			if c.Len() == 0 {
				t.Fatal("cache unusable after Reset")
			}
		})
	}
}
