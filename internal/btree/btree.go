// Package btree implements an in-memory B-tree with string keys.
//
// It backs the UDR's state-full data location stage (§3.3.1, §3.5):
// identity-location maps are ordered indexes whose lookup cost grows
// as O(log N) with the subscriber count — the cost experiment E8
// measures against the O(1) consistent-hashing alternative. It also
// backs secondary indexes inside storage elements.
package btree

import "sort"

// defaultDegree is the minimum number of children per internal node.
// 32 keeps nodes around two cache lines of keys, a reasonable
// point for string keys.
const defaultDegree = 32

// Map is a B-tree mapping string keys to values of type V.
// It is not safe for concurrent mutation; callers wrap it in their own
// locking (the locator serializes through a RWMutex).
type Map[V any] struct {
	degree int
	root   *node[V]
	length int
}

type item[V any] struct {
	key   string
	value V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
}

// New returns an empty tree with the default degree.
func New[V any]() *Map[V] { return NewDegree[V](defaultDegree) }

// NewDegree returns an empty tree with the given minimum degree
// (minimum children per internal node, >= 2).
func NewDegree[V any](degree int) *Map[V] {
	if degree < 2 {
		degree = 2
	}
	return &Map[V]{degree: degree}
}

// maxItems is the maximum number of items per node.
func (t *Map[V]) maxItems() int { return 2*t.degree - 1 }

// minItems is the minimum number of items per non-root node.
func (t *Map[V]) minItems() int { return t.degree - 1 }

// Len returns the number of keys.
func (t *Map[V]) Len() int { return t.length }

// find returns the index of key in n.items and whether it is present.
func (n *node[V]) find(key string) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
	if i < len(n.items) && n.items[i].key == key {
		return i, true
	}
	return i, false
}

// Get returns the value stored for key.
func (t *Map[V]) Get(key string) (V, bool) {
	var zero V
	n := t.root
	for n != nil {
		i, ok := n.find(key)
		if ok {
			return n.items[i].value, true
		}
		if n.children == nil {
			return zero, false
		}
		n = n.children[i]
	}
	return zero, false
}

// Set inserts or replaces the value for key and reports whether the
// key was newly inserted.
func (t *Map[V]) Set(key string, value V) bool {
	if t.root == nil {
		t.root = &node[V]{items: []item[V]{{key, value}}}
		t.length = 1
		return true
	}
	if len(t.root.items) >= t.maxItems() {
		mid, right := t.split(t.root)
		t.root = &node[V]{
			items:    []item[V]{mid},
			children: []*node[V]{t.root, right},
		}
	}
	inserted := t.insertNonFull(t.root, key, value)
	if inserted {
		t.length++
	}
	return inserted
}

// split divides the full node n, returning the median item and the
// new right sibling.
func (t *Map[V]) split(n *node[V]) (item[V], *node[V]) {
	mid := len(n.items) / 2
	median := n.items[mid]
	right := &node[V]{}
	right.items = append(right.items, n.items[mid+1:]...)
	n.items = n.items[:mid]
	if n.children != nil {
		right.children = append(right.children, n.children[mid+1:]...)
		n.children = n.children[:mid+1]
	}
	return median, right
}

func (t *Map[V]) insertNonFull(n *node[V], key string, value V) bool {
	for {
		i, ok := n.find(key)
		if ok {
			n.items[i].value = value
			return false
		}
		if n.children == nil {
			n.items = append(n.items, item[V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[V]{key, value}
			return true
		}
		child := n.children[i]
		if len(child.items) >= t.maxItems() {
			median, right := t.split(child)
			n.items = append(n.items, item[V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = median
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = right
			switch {
			case key == median.key:
				n.items[i].value = value
				return false
			case key > median.key:
				child = n.children[i+1]
			}
		}
		n = child
	}
}

// Delete removes key and reports whether it was present.
func (t *Map[V]) Delete(key string) bool {
	if t.root == nil {
		return false
	}
	deleted := t.delete(t.root, key)
	if len(t.root.items) == 0 {
		if t.root.children == nil {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	if deleted {
		t.length--
	}
	return deleted
}

func (t *Map[V]) delete(n *node[V], key string) bool {
	i, found := n.find(key)
	if n.children == nil {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor from the left subtree, then
		// delete the predecessor from it.
		child := n.children[i]
		if len(child.items) > t.minItems() {
			pred := t.max(child)
			n.items[i] = pred
			return t.delete(child, pred.key)
		}
		// Or successor from the right subtree.
		rchild := n.children[i+1]
		if len(rchild.items) > t.minItems() {
			succ := t.min(rchild)
			n.items[i] = succ
			return t.delete(rchild, succ.key)
		}
		// Merge the two children around the key, then recurse.
		t.merge(n, i)
		return t.delete(child, key)
	}
	// Ensure the child we descend into has > minItems items.
	child := n.children[i]
	if len(child.items) <= t.minItems() {
		t.rebalance(n, i)
		// rebalance may have merged child away; re-find.
		return t.delete(n, key)
	}
	return t.delete(child, key)
}

// rebalance grows n.children[i] by borrowing from a sibling or
// merging with one.
func (t *Map[V]) rebalance(n *node[V], i int) {
	child := n.children[i]
	if i > 0 && len(n.children[i-1].items) > t.minItems() {
		// Borrow from left sibling through the separator.
		left := n.children[i-1]
		child.items = append(child.items, item[V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if left.children != nil {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = moved
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > t.minItems() {
		// Borrow from right sibling.
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if right.children != nil {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return
	}
	// Merge with a sibling.
	if i == len(n.children)-1 {
		i--
	}
	t.merge(n, i)
}

// merge folds n.items[i] and n.children[i+1] into n.children[i].
func (t *Map[V]) merge(n *node[V], i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	child.children = append(child.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (t *Map[V]) min(n *node[V]) item[V] {
	for n.children != nil {
		n = n.children[0]
	}
	return n.items[0]
}

func (t *Map[V]) max(n *node[V]) item[V] {
	for n.children != nil {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Min returns the smallest key, or "" when empty.
func (t *Map[V]) Min() (string, V, bool) {
	var zero V
	if t.root == nil || t.length == 0 {
		return "", zero, false
	}
	it := t.min(t.root)
	return it.key, it.value, true
}

// Max returns the largest key, or "" when empty.
func (t *Map[V]) Max() (string, V, bool) {
	var zero V
	if t.root == nil || t.length == 0 {
		return "", zero, false
	}
	it := t.max(t.root)
	return it.key, it.value, true
}

// Ascend calls fn for every key in ascending order until fn returns
// false.
func (t *Map[V]) Ascend(fn func(key string, value V) bool) {
	t.ascendRange(t.root, "", "", false, false, fn)
}

// AscendRange calls fn for keys in [from, to) in ascending order until
// fn returns false.
func (t *Map[V]) AscendRange(from, to string, fn func(key string, value V) bool) {
	t.ascendRange(t.root, from, to, true, true, fn)
}

// AscendPrefix calls fn for every key with the given prefix in
// ascending order until fn returns false.
func (t *Map[V]) AscendPrefix(prefix string, fn func(key string, value V) bool) {
	t.ascendRange(t.root, prefix, "", true, false, func(k string, v V) bool {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			return false
		}
		return fn(k, v)
	})
}

func (t *Map[V]) ascendRange(n *node[V], from, to string, useFrom, useTo bool, fn func(string, V) bool) bool {
	if n == nil {
		return true
	}
	start := 0
	if useFrom {
		start = sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= from })
	}
	for i := start; i < len(n.items); i++ {
		if n.children != nil {
			if !t.ascendRange(n.children[i], from, to, useFrom, useTo, fn) {
				return false
			}
		}
		if useTo && n.items[i].key >= to {
			return false
		}
		if !fn(n.items[i].key, n.items[i].value) {
			return false
		}
		// Everything in later subtrees is >= this key, so from no
		// longer constrains them.
		useFrom = false
	}
	if n.children != nil {
		return t.ascendRange(n.children[len(n.items)], from, to, useFrom, useTo, fn)
	}
	return true
}

// Height returns the tree height (0 for an empty tree), so tests can
// check the tree stays O(log N) deep.
func (t *Map[V]) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.children == nil {
			break
		}
		n = n.children[0]
	}
	return h
}
