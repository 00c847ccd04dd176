package hypergraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// hashDomain versions the canonical encoding; bump it if the encoding
// below ever changes so stale cache keys cannot collide across versions.
const hashDomain = "distcover/hypergraph/v1\n"

// hashChunk is how many encoded bytes Hash buffers per SHA-256 write.
const hashChunk = 32 << 10

// hashBlock is how many edges Hash encodes per SHA-256 write on a graph
// without a kept canonical encoding.
const hashBlock = 1024

// Hash returns a canonical content hash of the hypergraph: a hex-encoded
// SHA-256 over a normalized binary encoding of the weights and edges.
//
// The encoding is canonical in the sense that it identifies the instance
// as a mathematical object, not a byte layout: vertices within an edge are
// sorted (the Builder already stores them sorted and deduplicated) and the
// edge list itself is hashed in lexicographic order, so two instances that
// list the same edges in different orders hash identically. Any cover and
// dual certificate valid for one is valid for the other, which makes the
// hash a sound cache key for solver results.
//
// The encoding is the hashDomain prefix, uvarint(n), uvarint(w) per
// vertex, uvarint(m), then per edge in canonical order uvarint(|e|) and
// uvarint(v) per vertex; SHA-256 gets it in chunks, not value by value.
// On a built graph the canonical order costs linear time — a counting
// sort on each edge's first (minimum) vertex, then a sort inside each
// bucket, which is tiny except at hub vertices. An extended graph needs no
// order at all: Extend keeps the encoded edge rows in canonical order
// (canonEnc), so hashing it is one sequential pass. The digest is memoized
// on the immutable graph: the first call computes it (concurrent first
// calls may both compute it; they store the same string), every later
// call returns it. Extend never computes it.
func (g *Hypergraph) Hash() string {
	if d := g.digest.Load(); d != nil {
		return *d
	}
	d := g.computeHash()
	if !g.digest.CompareAndSwap(nil, &d) {
		return *g.digest.Load()
	}
	return d
}

func (g *Hypergraph) computeHash() string {
	h := sha256.New()
	buf := append(make([]byte, 0, hashChunk), hashDomain...)
	buf = binary.AppendUvarint(buf, uint64(len(g.weights)))
	for _, x := range g.weights {
		if len(buf) > hashChunk-binary.MaxVarintLen64 {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	m := g.NumEdges()
	buf = binary.AppendUvarint(buf, uint64(m))
	if g.canonAt != nil || m == 0 {
		h.Write(buf)
		h.Write(g.canonEnc)
	} else {
		order := g.canonicalEdgeOrder(m)
		for lo := 0; lo < m; lo += hashBlock {
			buf, _ = g.appendRows(buf, nil, order[lo:min(lo+hashBlock, m)])
			h.Write(buf)
			buf = buf[:0]
		}
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// appendRows appends the hash encoding of the given edges — uvarint(|e|),
// then uvarint(v) per vertex — to enc and, when at is non-nil, where each
// row starts in enc to at.
func (g *Hypergraph) appendRows(enc []byte, at []int, edges []int) ([]byte, []int) {
	for _, e := range edges {
		if at != nil {
			at = append(at, len(enc))
		}
		vs := g.Edge(EdgeID(e))
		enc = binary.AppendUvarint(enc, uint64(len(vs)))
		for _, v := range vs {
			enc = binary.AppendUvarint(enc, uint64(v))
		}
	}
	return enc, at
}

// compareEncoded is edgeCompare between row and the encoded row at the
// start of enc.
func compareEncoded(row []VertexID, enc []byte) int {
	size, k := binary.Uvarint(enc)
	enc = enc[k:]
	for i := 0; i < len(row) && uint64(i) < size; i++ {
		v, k := binary.Uvarint(enc)
		enc = enc[k:]
		if row[i] != VertexID(v) {
			if row[i] < VertexID(v) {
				return -1
			}
			return 1
		}
	}
	return len(row) - int(size)
}

// canonicalEdgeOrder returns the edge ids 0..m-1 sorted lexicographically
// by their (already sorted) vertex lists, with shorter prefixes first. A
// counting sort on each edge's first vertex places every edge in its
// bucket in one pass; only edges sharing a first vertex are compared.
func (g *Hypergraph) canonicalEdgeOrder(m int) []int {
	if m == 0 {
		return nil
	}
	next := make([]int, len(g.weights)+1) // bucket starts, then write cursors
	for e := 0; e < m; e++ {
		next[g.edgeVerts[g.edgeOff[e]]+1]++
	}
	for v := 1; v < len(next); v++ {
		next[v] += next[v-1]
	}
	order := make([]int, m)
	for e := 0; e < m; e++ {
		first := g.edgeVerts[g.edgeOff[e]]
		order[next[first]] = e
		next[first]++
	}
	// next[v] is now the end of v's bucket, i.e. the start of v+1's.
	lo := 0
	for _, hi := range next[:len(next)-1] {
		if hi-lo > 1 {
			g.sortEdges(order[lo:hi])
		}
		lo = hi
	}
	return order
}

// sortEdges sorts edge ids into canonical order: insertion sort for the
// short runs that dominate (buckets, delta suffixes), pdqsort otherwise.
func (g *Hypergraph) sortEdges(ids []int) {
	if len(ids) > 12 {
		slices.SortFunc(ids, func(a, b int) int {
			return edgeCompare(g.Edge(EdgeID(a)), g.Edge(EdgeID(b)))
		})
		return
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && edgeCompare(g.Edge(EdgeID(ids[j])), g.Edge(EdgeID(ids[j-1]))) < 0; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// edgeCompare is the canonical edge order: lexicographic on the sorted
// vertex lists, shorter prefixes first.
func edgeCompare(a, b []VertexID) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
