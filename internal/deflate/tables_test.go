package deflate

import "testing"

// An empty tree's table must stay empty once its storage has been reused:
// the tables a block with no matches leaves behind are the next block's
// store, and a one-code tree fits in the same two entries.
func TestEmptyTreeTableNotShared(t *testing.T) {
	empty := make([]uint8, maxDist)
	one := make([]uint8, maxDist)
	one[0] = 1
	store, _, err := buildTab(nil, empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildTab(store, one); err != nil {
		t.Fatal(err)
	}
	tab, mask, err := buildTab(nil, empty)
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w <= mask; w++ {
		if tab[w] != 0 {
			t.Fatalf("empty tree decodes window %d to entry %#x", w, tab[w])
		}
	}
}
