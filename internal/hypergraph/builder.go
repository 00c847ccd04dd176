package hypergraph

import (
	"errors"
	"fmt"
)

// Validation errors returned by Builder.Build and Validate.
var (
	// ErrNoVertices indicates an instance with edges but no vertices.
	ErrNoVertices = errors.New("hypergraph: no vertices")
	// ErrEmptyEdge indicates a hyperedge with no vertices; such an edge can
	// never be covered, so the instance is infeasible.
	ErrEmptyEdge = errors.New("hypergraph: empty edge")
	// ErrVertexRange indicates an edge referencing an out-of-range vertex.
	ErrVertexRange = errors.New("hypergraph: vertex id out of range")
	// ErrNonPositiveWeight indicates a vertex weight ≤ 0.
	ErrNonPositiveWeight = errors.New("hypergraph: non-positive vertex weight")
)

// Builder incrementally constructs a Hypergraph. The zero value is ready to
// use. Builders are not safe for concurrent use.
type Builder struct {
	weights []int64
	edges   [][]VertexID
}

// NewBuilder returns a Builder with capacity hints for n vertices and m
// edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		weights: make([]int64, 0, n),
		edges:   make([][]VertexID, 0, m),
	}
}

// AddVertex appends a vertex with the given weight and returns its id.
func (b *Builder) AddVertex(weight int64) VertexID {
	b.weights = append(b.weights, weight)
	return VertexID(len(b.weights) - 1)
}

// AddVertices appends k vertices all of the given weight and returns the id
// of the first.
func (b *Builder) AddVertices(k int, weight int64) VertexID {
	first := VertexID(len(b.weights))
	for i := 0; i < k; i++ {
		b.weights = append(b.weights, weight)
	}
	return first
}

// AddEdge appends a hyperedge over the given vertices (duplicates are
// dropped) and returns its id. Validation is deferred to Build.
func (b *Builder) AddEdge(vs ...VertexID) EdgeID {
	b.edges = append(b.edges, sortedUnique(vs))
	return EdgeID(len(b.edges) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.weights) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build validates the instance and returns the immutable hypergraph. The
// builder remains usable; the built hypergraph does not alias its storage.
func (b *Builder) Build() (*Hypergraph, error) {
	g := new(Hypergraph)
	if err := g.init(b.csr()); err != nil {
		return nil, err
	}
	return g, nil
}

// csr copies the builder's contents into fresh, unvalidated CSR arrays.
func (b *Builder) csr() (weights []int64, edgeOff []int, edgeVerts []VertexID) {
	total := 0
	for _, vs := range b.edges {
		total += len(vs)
	}
	edgeOff = make([]int, len(b.edges)+1)
	edgeVerts = make([]VertexID, 0, total)
	for i, vs := range b.edges {
		edgeVerts = append(edgeVerts, vs...)
		edgeOff[i+1] = len(edgeVerts)
	}
	return append([]int64(nil), b.weights...), edgeOff, edgeVerts
}

// init validates CSR arrays whose edge rows are already sorted and
// deduplicated, then makes g the hypergraph they describe, taking
// ownership of the arrays. Errors (and their order: vertices, weights,
// then edges in id order) are those Build has always reported.
func (g *Hypergraph) init(weights []int64, edgeOff []int, edgeVerts []VertexID) error {
	m := max(len(edgeOff)-1, 0)
	if m > 0 && len(weights) == 0 {
		return ErrNoVertices
	}
	for v, w := range weights {
		if w <= 0 {
			return fmt.Errorf("%w: vertex %d has weight %d", ErrNonPositiveWeight, v, w)
		}
	}
	for e := 0; e < m; e++ {
		row := edgeVerts[edgeOff[e]:edgeOff[e+1]]
		if len(row) == 0 {
			return fmt.Errorf("%w: edge %d", ErrEmptyEdge, e)
		}
		for _, v := range row {
			if v < 0 || int(v) >= len(weights) {
				return fmt.Errorf("%w: edge %d references vertex %d (n=%d)",
					ErrVertexRange, e, v, len(weights))
			}
		}
	}
	*g = Hypergraph{weights: weights, edgeOff: edgeOff, edgeVerts: edgeVerts}
	g.buildIncidence()
	return nil
}

// MustBuild is Build but panics on error; intended for tests and statically
// known-valid literals.
func (b *Builder) MustBuild() *Hypergraph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// New constructs a hypergraph directly from a weight vector and edge list.
func New(weights []int64, edges [][]VertexID) (*Hypergraph, error) {
	b := NewBuilder(len(weights), len(edges))
	for _, w := range weights {
		b.AddVertex(w)
	}
	for _, e := range edges {
		b.AddEdge(e...)
	}
	return b.Build()
}

// MustNew is New but panics on error.
func MustNew(weights []int64, edges [][]VertexID) *Hypergraph {
	g, err := New(weights, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Validate re-checks the structural invariants of g. Hypergraphs built via
// Builder always pass; Validate exists for instances decoded from JSON.
func Validate(g *Hypergraph) error {
	if g.NumEdges() > 0 && g.NumVertices() == 0 {
		return ErrNoVertices
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Weight(VertexID(v)) <= 0 {
			return fmt.Errorf("%w: vertex %d", ErrNonPositiveWeight, v)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		vs := g.Edge(EdgeID(e))
		if len(vs) == 0 {
			return fmt.Errorf("%w: edge %d", ErrEmptyEdge, e)
		}
		for i, v := range vs {
			if v < 0 || int(v) >= g.NumVertices() {
				return fmt.Errorf("%w: edge %d vertex %d", ErrVertexRange, e, v)
			}
			if i > 0 && vs[i-1] >= v {
				return fmt.Errorf("hypergraph: edge %d not sorted/unique", e)
			}
		}
	}
	return nil
}
