package heap

import "sentinel/internal/page"

// freeMap is the heap's free-space map: for every page, the size of the
// largest record it would accept (page.Reclaimable). The hints are the leaves
// of an implicit binary max-tree — node i has children 2i and 2i+1, leaf p
// sits at leaves+p — so the lowest-numbered page with room for a record is
// found in O(log pages) instead of by scanning every hint.
type freeMap struct {
	tree   []uint16 // page.MaxRecord fits in 16 bits
	leaves int      // leaf capacity: zero or a power of two
}

// set records hint as the free space of page p, growing the tree to cover p.
func (m *freeMap) set(p page.ID, hint int) {
	if int(p) >= m.leaves {
		m.grow(int(p) + 1)
	}
	i := m.leaves + int(p)
	m.tree[i] = uint16(hint)
	for i >>= 1; i >= 1; i >>= 1 {
		m.tree[i] = max(m.tree[2*i], m.tree[2*i+1])
	}
}

// grow doubles the leaf capacity until it covers n pages. The old tree is
// the leftmost subtree of the new one at every level, so each level is
// copied across as one run.
func (m *freeMap) grow(n int) {
	leaves := max(m.leaves, 1)
	for leaves < n {
		leaves *= 2
	}
	tree := make([]uint16, 2*leaves)
	shift := leaves / max(m.leaves, 1)
	for lo := 1; lo <= m.leaves; lo *= 2 {
		copy(tree[lo*shift:], m.tree[lo:2*lo])
	}
	// Levels above the old root have it as their only non-empty descendant.
	if m.leaves > 0 {
		for i := shift / 2; i >= 1; i /= 2 {
			tree[i] = m.tree[1]
		}
	}
	m.tree, m.leaves = tree, leaves
}

// first returns the lowest page id >= from whose hint is at least need.
// Pages never set have hint zero, so need must be positive.
func (m *freeMap) first(from page.ID, need int) (page.ID, bool) {
	if int(from) >= m.leaves || need > page.MaxRecord {
		return 0, false
	}
	n := uint16(need)
	i := m.leaves + int(from)
	for m.tree[i] < n {
		// Nothing at or under i: step to the next subtree on the right,
		// climbing while i is itself a right child.
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return 0, false
		}
		i++
	}
	for i < m.leaves {
		i *= 2
		if m.tree[i] < n {
			i++
		}
	}
	return page.ID(i - m.leaves), true
}
