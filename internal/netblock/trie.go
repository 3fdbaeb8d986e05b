package netblock

// Trie is a binary radix trie keyed by Prefix, mapping each prefix to an
// arbitrary value. It supports exact lookup, longest-prefix match, covering
// (less-specific) and covered (more-specific) enumeration — the primitives
// the delegation-inference pipeline needs to relate announced prefixes.
//
// The zero value... is not usable; create with NewTrie. Trie is not
// safe for concurrent mutation.
type Trie[V any] struct {
	root *trieNode[V]
	size int

	// spare is the unused tail of the last node block. Insert carves new
	// nodes from it, so a trie of n nodes costs O(log n) allocations, not
	// n. Nodes are never unlinked (Delete leaves them in place), so a
	// block lives exactly as long as the trie does.
	spare []trieNode[V]
	nodes int // nodes carved so far
}

// Node blocks grow with the trie, doubling from minNodeBlock up to
// maxNodeBlock nodes, which bounds the unused tail of the last block.
const (
	minNodeBlock = 8
	maxNodeBlock = 1024
)

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// NewTrie returns an empty trie.
func NewTrie[V any]() *Trie[V] {
	return &Trie[V]{root: &trieNode[V]{}}
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// newNode returns a zeroed node carved from the current block.
func (t *Trie[V]) newNode() *trieNode[V] {
	if len(t.spare) == 0 {
		t.spare = make([]trieNode[V], min(max(t.nodes, minNodeBlock), maxNodeBlock))
	}
	n := &t.spare[0]
	t.spare = t.spare[1:]
	t.nodes++
	return n
}

func bitAt(a Addr, i int) int {
	return int(a>>(31-uint(i))) & 1
}

// Insert stores val under p, replacing any existing value. It reports
// whether the prefix was newly inserted.
func (t *Trie[V]) Insert(p Prefix, val V) bool {
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(p.Addr(), i)
		if n.child[b] == nil {
			n.child[b] = t.newNode()
		}
		n = n.child[b]
	}
	fresh := !n.set
	n.val, n.set = val, true
	if fresh {
		t.size++
	}
	return fresh
}

// Get returns the value stored exactly at p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(p.Addr(), i)]
		if n == nil {
			var zero V
			return zero, false
		}
	}
	return n.val, n.set
}

// Delete removes the value stored exactly at p and reports whether it was
// present. Empty interior nodes are left in place; the trie is rebuilt by
// the callers that care about memory (none of ours do per-day).
func (t *Trie[V]) Delete(p Prefix) bool {
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(p.Addr(), i)]
		if n == nil {
			return false
		}
	}
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	return true
}

// LongestMatch returns the most specific stored prefix covering p, along
// with its value.
func (t *Trie[V]) LongestMatch(p Prefix) (Prefix, V, bool) {
	var (
		bestP  Prefix
		bestV  V
		found  bool
		n      = t.root
		prefix Addr
	)
	if n.set {
		bestP, bestV, found = Prefix{}, n.val, true
	}
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(p.Addr(), i)
		n = n.child[b]
		if n == nil {
			break
		}
		if b == 1 {
			prefix |= Addr(1) << (31 - uint(i))
		}
		if n.set {
			bestP, bestV, found = Prefix{prefix, uint8(i + 1)}, n.val, true
		}
	}
	return bestP, bestV, found
}

// CoveringEntry holds a prefix/value pair returned by enumeration methods.
type CoveringEntry[V any] struct {
	Prefix Prefix
	Value  V
}

// Covering returns all stored prefixes that cover p (including p itself if
// stored), ordered from least to most specific.
func (t *Trie[V]) Covering(p Prefix) []CoveringEntry[V] {
	var (
		out    []CoveringEntry[V]
		n      = t.root
		prefix Addr
	)
	if n.set {
		out = append(out, CoveringEntry[V]{Prefix{}, n.val})
	}
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(p.Addr(), i)
		n = n.child[b]
		if n == nil {
			return out
		}
		if b == 1 {
			prefix |= Addr(1) << (31 - uint(i))
		}
		if n.set {
			out = append(out, CoveringEntry[V]{Prefix{prefix, uint8(i + 1)}, n.val})
		}
	}
	return out
}

// CoveredBy returns all stored prefixes covered by p (including p itself if
// stored), in Compare order.
func (t *Trie[V]) CoveredBy(p Prefix) []CoveringEntry[V] {
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bitAt(p.Addr(), i)]
		if n == nil {
			return nil
		}
	}
	var out []CoveringEntry[V]
	collect(n, p.Addr(), p.Bits(), &out)
	return out
}

func collect[V any](n *trieNode[V], addr Addr, depth int, out *[]CoveringEntry[V]) {
	if n.set {
		*out = append(*out, CoveringEntry[V]{Prefix{addr, uint8(depth)}, n.val})
	}
	if depth == 32 {
		return
	}
	if n.child[0] != nil {
		collect(n.child[0], addr, depth+1, out)
	}
	if n.child[1] != nil {
		collect(n.child[1], addr|Addr(1)<<(31-uint(depth)), depth+1, out)
	}
}

// Walk visits every stored prefix/value pair in Compare order. The visit
// function returns false to stop the walk early.
func (t *Trie[V]) Walk(visit func(Prefix, V) bool) {
	walk(t.root, 0, 0, visit)
}

func walk[V any](n *trieNode[V], addr Addr, depth int, visit func(Prefix, V) bool) bool {
	if n.set && !visit(Prefix{addr, uint8(depth)}, n.val) {
		return false
	}
	if depth == 32 {
		return true
	}
	if n.child[0] != nil && !walk(n.child[0], addr, depth+1, visit) {
		return false
	}
	if n.child[1] != nil && !walk(n.child[1], addr|Addr(1)<<(31-uint(depth)), depth+1, visit) {
		return false
	}
	return true
}
