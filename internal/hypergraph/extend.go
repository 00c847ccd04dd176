package hypergraph

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Extend returns a new hypergraph equal to g plus addWeights appended
// vertices and addEdges appended hyperedges (referencing old and new
// vertices alike). g is unchanged and remains fully usable — but any Edge
// or Incident views taken from g before the call must be treated as
// invalidated (see the aliasing contract on those methods).
//
// Extend is built for incremental sessions, where it runs on every delta
// batch. On the CSR layout its cost is O(n + I + |Δ|) where I is the total
// incidence size — three flat array appends plus one counting-sort rebuild
// of the incidence CSR — with no per-vertex or per-edge allocations:
//
//   - The weight and edge arrays grow with headroom, and the first Extend
//     from a graph claims the spare capacity behind them (atomically), so a
//     linear chain of extensions appends in place instead of copying the
//     whole prefix every time. Branching extensions from one base remain
//     correct — later claimants fall back to copying.
//   - The incidence CSR cannot grow per vertex in place (an insertion in
//     the middle of a flat array would shift everything behind it), but new
//     edges carry ids larger than every existing edge, so each vertex's new
//     incidences belong at the *end* of its segment. extendIncidence
//     exploits that: the old array is block-copied run-by-run between
//     delta-touched vertices (long memmoves, no per-edge scatter) and only
//     the |Δ| new entries are placed individually. The fresh arrays also
//     guarantee the new graph's incidence shares nothing with the base,
//     which keeps MemoryBytes honest per graph.
//   - The canonical edge encoding behind Hash is maintained by merging the
//     sorted new rows into the base's — O(m) copy, no re-sort — so the
//     extended graph hashes in one sequential pass. The merged encoding is
//     always fresh, never shared with the base.
func (g *Hypergraph) Extend(addWeights []int64, addEdges [][]VertexID) (*Hypergraph, error) {
	n := len(g.weights) + len(addWeights)
	m0 := g.NumEdges()
	for i, w := range addWeights {
		if w <= 0 {
			return nil, fmt.Errorf("%w: vertex %d has weight %d",
				ErrNonPositiveWeight, len(g.weights)+i, w)
		}
	}
	// Copy the rows into one buffer and sort/deduplicate them there: one
	// allocation for the whole delta, and the caller's slices stay as given.
	addVerts := 0
	for _, e := range addEdges {
		addVerts += len(e)
	}
	buf := make([]VertexID, 0, addVerts)
	newEdges := make([][]VertexID, len(addEdges))
	addVerts = 0
	for i, e := range addEdges {
		start := len(buf)
		buf = append(buf, e...)
		buf = buf[:start+sortUniqueInPlace(buf[start:])]
		vs := buf[start:len(buf):len(buf)]
		if len(vs) == 0 {
			return nil, fmt.Errorf("%w: edge %d", ErrEmptyEdge, m0+i)
		}
		for _, v := range vs {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("%w: edge %d references vertex %d (n=%d)",
					ErrVertexRange, m0+i, v, n)
			}
		}
		newEdges[i] = vs
		addVerts += len(vs)
	}
	if m0+len(newEdges) > 0 && n == 0 {
		return nil, ErrNoVertices
	}

	h := &Hypergraph{}
	// Claim g's spare capacity if we are the first extension from it; the
	// in-place appends below only write beyond the base graph's lengths, so
	// every index the base can read stays untouched. Along a claim chain
	// every backing position beyond a graph's length is written by exactly
	// one descendant, so sharing stays sound.
	claimed := atomic.CompareAndSwapUint32(&g.extended, 0, 1)
	if claimed {
		h.weights = append(g.weights, addWeights...)
		h.edgeOff = g.edgeOff
		h.edgeVerts = g.edgeVerts
	} else {
		h.weights = append(growCopy(g.weights, len(addWeights)), addWeights...)
		h.edgeOff = growCopy(g.edgeOff, len(newEdges))
		h.edgeVerts = growCopy(g.edgeVerts, addVerts)
	}
	if len(h.edgeOff) == 0 {
		h.edgeOff = append(h.edgeOff, 0)
	}
	for _, vs := range newEdges {
		h.edgeVerts = append(h.edgeVerts, vs...)
		h.edgeOff = append(h.edgeOff, len(h.edgeVerts))
	}
	h.extendIncidence(g, newEdges)
	h.mergeCanonical(g)
	return h, nil
}

// extendIncidence builds h's incidence CSR from the base graph's plus the
// validated new edges (already appended to h's edge CSR). New edge ids are
// larger than every base id and incidence lists are ascending, so a
// vertex's new entries extend the tail of its segment: old segments keep
// their internal layout and only shift by the growth of the touched
// vertices before them. The old array is therefore block-copied in runs
// between touched vertices — the per-edge counting-sort scatter of
// buildIncidence, the dominant cost of a small delta on a large instance,
// is paid only for the |Δ| new entries.
func (h *Hypergraph) extendIncidence(g *Hypergraph, newEdges [][]VertexID) {
	n := len(h.weights)
	n0 := len(g.weights) // touched vertices may include ids ≥ n0 (new vertices)
	m0 := g.NumEdges()
	h.rank = g.rank
	add := make([]int, n) // new incidences per vertex
	addVol := 0
	for _, vs := range newEdges {
		if len(vs) > h.rank {
			h.rank = len(vs)
		}
		addVol += len(vs)
		for _, v := range vs {
			add[v]++
		}
	}
	h.incOff = make([]int, n+1)
	h.maxDegree = g.maxDegree
	touched := make([]VertexID, 0, min(addVol, n)) // one alloc: ≤ one entry per new incidence
	for v := 0; v < n; v++ {
		d := add[v]
		if v < n0 {
			d += g.incOff[v+1] - g.incOff[v]
		}
		h.incOff[v+1] = h.incOff[v] + d
		if d > h.maxDegree {
			h.maxDegree = d
		}
		if add[v] > 0 {
			touched = append(touched, VertexID(v))
		}
	}
	h.incEdges = make([]EdgeID, h.incOff[n])
	// Copy the old array in runs: everything up to and including a touched
	// vertex's old segment lies contiguously in both arrays, offset by the
	// growth of the touched vertices already passed.
	src, dst := 0, 0
	for _, v := range touched {
		end := src
		if int(v) < n0 {
			end = g.incOff[v+1]
		} else if n0 > 0 {
			end = g.incOff[n0]
		}
		copy(h.incEdges[dst:], g.incEdges[src:end])
		dst += end - src + add[v] // skip the slots the scatter below fills
		src = end
	}
	if n0 > 0 {
		copy(h.incEdges[dst:], g.incEdges[src:g.incOff[n0]])
	}
	// Scatter the new entries, reusing add as the per-vertex write cursor:
	// ascending edge order keeps each tail ascending.
	for _, tv := range touched {
		add[tv] = h.incOff[tv+1] - add[tv]
	}
	for i, vs := range newEdges {
		e := EdgeID(m0 + i)
		for _, v := range vs {
			h.incEdges[add[v]] = e
			add[v]++
		}
	}
}

// growCopy copies s into a fresh slice with headroom for extra plus 25%,
// so a chain of copying extensions stays amortized linear.
func growCopy[T any](s []T, extra int) []T {
	out := make([]T, len(s), len(s)+extra+len(s)/4)
	copy(out, s)
	return out
}

// mergeCanonical sets h's canonical edge encoding (canonEnc/canonAt, see
// Hash) by merging the base graph's rows — kept by a prior Extend, or
// encoded once from the sorted order — with the sorted new edges [m0, m).
// Each new edge's insertion point is found by binary search over the base
// rows and the runs between them are block-copied, so the merge costs
// O(k·(log k + log m)) comparisons plus O(m) copying — the comparator
// never walks the whole base. The result is always fresh: sharing the
// base's encoding across the extension tree would make the graphs' byte
// accounting (MemoryBytes) overlap.
func (h *Hypergraph) mergeCanonical(g *Hypergraph) {
	m0, m := g.NumEdges(), h.NumEdges()
	// Every value encoded is a vertex id or an edge size, so each takes at
	// most as many bytes as max(n, rank): the rows fit one allocation.
	width := (bits.Len64(uint64(max(len(h.weights), h.rank))|1) + 6) / 7
	oldEnc, oldAt := g.canonEnc, g.canonAt
	if oldAt == nil {
		oldEnc, oldAt = h.appendRows(make([]byte, 0, (m0+h.edgeOff[m0])*width),
			make([]int, 0, m0), h.canonicalEdgeOrder(m0))
	}
	newOrder := make([]int, m-m0)
	for i := range newOrder {
		newOrder[i] = m0 + i
	}
	h.sortEdges(newOrder)
	newEnc, newAt := h.appendRows(make([]byte, 0, (m-m0+h.edgeOff[m]-h.edgeOff[m0])*width),
		make([]int, 0, m-m0), newOrder)
	h.canonEnc = make([]byte, 0, len(oldEnc)+len(newEnc))
	h.canonAt = make([]int, 0, m)
	// copyRows appends rows [from, to) of enc/at (a row ends where the next
	// starts, the last at the end of enc).
	copyRows := func(enc []byte, at []int, from, to int) {
		if from == to {
			return
		}
		start, end := at[from], len(enc)
		if to < len(at) {
			end = at[to]
		}
		for _, a := range at[from:to] {
			h.canonAt = append(h.canonAt, len(h.canonEnc)+a-start)
		}
		h.canonEnc = append(h.canonEnc, enc[start:end]...)
	}
	prev := 0
	for i, ne := range newOrder {
		e := h.Edge(EdgeID(ne))
		// First base row the new edge sorts strictly before; ties keep base
		// rows first (equal edges encode identically either way), and
		// newOrder being sorted keeps the positions non-decreasing.
		pos := prev + sort.Search(len(oldAt)-prev, func(j int) bool {
			return compareEncoded(e, oldEnc[oldAt[prev+j]:]) < 0
		})
		copyRows(oldEnc, oldAt, prev, pos)
		copyRows(newEnc, newAt, i, i+1)
		prev = pos
	}
	copyRows(oldEnc, oldAt, prev, len(oldAt))
}
