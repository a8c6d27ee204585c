package sqldb

// A B-tree keyed by Value, mapping primary keys to row ids. Order chosen so
// nodes stay cache-friendly; the tree supports point lookup, ordered range
// scans, insertion and deletion — what the executor's index paths need.

const btreeOrder = 32 // max children per internal node

type btreeNode struct {
	keys     []Value
	vals     []int // row ids, parallel to keys (leaf and internal alike)
	children []*btreeNode
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// BTree is the index structure.
type BTree struct {
	root *btreeNode
	size int // live keys
	dead int // tombstoned keys, at most size (see Delete)
}

// NewBTree creates an empty tree.
func NewBTree() *BTree { return &BTree{root: &btreeNode{}} }

// Len returns the number of keys.
func (t *BTree) Len() int { return t.size }

// findIdx returns the position of key in n.keys and whether it matched.
func findIdx(n *btreeNode, key Value) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && Compare(n.keys[lo], key) == 0
}

// Get returns the row id for key. Tombstoned (deleted) keys are absent.
func (t *BTree) Get(key Value) (int, bool) {
	n := t.root
	for {
		i, ok := findIdx(n, key)
		if ok {
			if n.vals[i] == tombstone {
				return 0, false
			}
			return n.vals[i], true
		}
		if n.leaf() {
			return 0, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the row id for key. Returns whether a new key was
// inserted (false = replaced).
func (t *BTree) Set(key Value, rowID int) bool {
	if len(t.root.keys) == 2*btreeOrder-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.splitChild(t.root, 0)
	}
	inserted := t.insertNonFull(t.root, key, rowID)
	if inserted {
		t.size++
	}
	return inserted
}

func (t *BTree) splitChild(parent *btreeNode, i int) {
	child := parent.children[i]
	mid := btreeOrder - 1
	right := &btreeNode{
		keys: append([]Value(nil), child.keys[mid+1:]...),
		vals: append([]int(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]

	parent.keys = append(parent.keys, Value{})
	parent.vals = append(parent.vals, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	copy(parent.vals[i+1:], parent.vals[i:])
	parent.keys[i], parent.vals[i] = upKey, upVal
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *BTree) insertNonFull(n *btreeNode, key Value, rowID int) bool {
	for {
		i, ok := findIdx(n, key)
		if ok {
			return t.replace(n, i, rowID)
		}
		if n.leaf() {
			n.keys = append(n.keys, Value{})
			n.vals = append(n.vals, 0)
			copy(n.keys[i+1:], n.keys[i:])
			copy(n.vals[i+1:], n.vals[i:])
			n.keys[i], n.vals[i] = key, rowID
			return true
		}
		if len(n.children[i].keys) == 2*btreeOrder-1 {
			t.splitChild(n, i)
			if Compare(key, n.keys[i]) == 0 {
				return t.replace(n, i, rowID)
			}
			if Compare(key, n.keys[i]) > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// replace stores rowID in entry i of n. Reviving a tombstoned key counts
// as an insertion.
func (t *BTree) replace(n *btreeNode, i, rowID int) bool {
	wasDead := n.vals[i] == tombstone
	n.vals[i] = rowID
	if wasDead {
		t.dead--
	}
	return wasDead
}

// Delete removes key, reporting whether it existed. It replaces the entry's
// row id with a tombstone, which lookups and scans skip, instead of
// rebalancing; once tombstones outnumber live keys it rebuilds the tree
// from the live entries, so the tree never holds more than twice its live
// keys and the rebuilds cost O(log n) per deletion amortized.
func (t *BTree) Delete(key Value) bool {
	n := t.root
	for {
		i, ok := findIdx(n, key)
		if ok {
			if n.vals[i] == tombstone {
				return false
			}
			n.vals[i] = tombstone
			t.size--
			t.dead++
			if t.dead > t.size {
				t.rebuild()
			}
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// rebuild replaces the tree with one holding only its live entries.
func (t *BTree) rebuild() {
	live := NewBTree()
	t.Scan(func(k Value, id int) bool {
		live.Set(k, id)
		return true
	})
	t.root, t.dead = live.root, 0
}

const tombstone = -1

// Scan calls fn for every live (key, rowID) in ascending key order; fn
// returning false stops the scan.
func (t *BTree) Scan(fn func(key Value, rowID int) bool) {
	ascend(t.root, nil, fn)
}

// ScanRange visits live keys in [lo, hi] inclusive (nil bounds are open).
// It descends straight to lo and examines only the entries from there to
// the first key past hi, which stops it: O(log n + k) for k entries.
func (t *BTree) ScanRange(lo, hi *Value, fn func(key Value, rowID int) bool) {
	ascend(t.root, lo, func(k Value, id int) bool {
		if hi != nil && Compare(k, *hi) > 0 {
			return false
		}
		return fn(k, id)
	})
}

// ascend calls fn for every live entry of n's subtree whose key is at least
// lo (nil: every entry), in ascending key order, and reports false once fn
// does. Only the path to lo is searched: every subtree after it holds
// greater keys and is walked whole.
func ascend(n *btreeNode, lo *Value, fn func(Value, int) bool) bool {
	i := 0
	if lo != nil {
		i, _ = findIdx(n, *lo)
	}
	for ; i < len(n.keys); i++ {
		if !n.leaf() && !ascend(n.children[i], lo, fn) {
			return false
		}
		lo = nil
		if n.vals[i] != tombstone && !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return ascend(n.children[len(n.keys)], lo, fn)
	}
	return true
}
