package hypergraph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func mustBuild(t *testing.T, weights []int64, edges [][]VertexID) *Hypergraph {
	t.Helper()
	b := NewBuilder(len(weights), len(edges))
	for _, w := range weights {
		b.AddVertex(w)
	}
	for _, e := range edges {
		b.AddEdge(e...)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestHashDeterministic(t *testing.T) {
	g := mustBuild(t, []int64{3, 1, 4}, [][]VertexID{{0, 1}, {1, 2}, {0, 2}})
	h1, h2 := g.Hash(), g.Hash()
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("expected 64 hex chars, got %d (%s)", len(h1), h1)
	}
}

func TestHashRoundTripStable(t *testing.T) {
	g, err := UniformRandom(40, 80, 3, GenConfig{Seed: 7, MaxWeight: 50, Dist: WeightUniformRange})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hash() != g2.Hash() {
		t.Fatalf("hash changed across JSON round trip: %s vs %s", g.Hash(), g2.Hash())
	}
}

func TestHashCanonicalization(t *testing.T) {
	base := mustBuild(t, []int64{5, 2, 8}, [][]VertexID{{0, 1}, {1, 2}})
	// Vertices permuted within an edge: Builder sorts, so hashes agree.
	permutedVerts := mustBuild(t, []int64{5, 2, 8}, [][]VertexID{{1, 0}, {2, 1}})
	if base.Hash() != permutedVerts.Hash() {
		t.Errorf("within-edge permutation changed the hash")
	}
	// Edges listed in a different order: canonical edge order makes them equal.
	permutedEdges := mustBuild(t, []int64{5, 2, 8}, [][]VertexID{{1, 2}, {0, 1}})
	if base.Hash() != permutedEdges.Hash() {
		t.Errorf("edge-order permutation changed the hash")
	}
}

func TestHashDistinguishesInstances(t *testing.T) {
	a := mustBuild(t, []int64{1, 1, 1}, [][]VertexID{{0, 1}})
	seen := map[string]string{a.Hash(): "base"}
	cases := map[string]*Hypergraph{
		"different weight": mustBuild(t, []int64{1, 2, 1}, [][]VertexID{{0, 1}}),
		"different edge":   mustBuild(t, []int64{1, 1, 1}, [][]VertexID{{0, 2}}),
		"extra edge":       mustBuild(t, []int64{1, 1, 1}, [][]VertexID{{0, 1}, {1, 2}}),
		"extra vertex":     mustBuild(t, []int64{1, 1, 1, 1}, [][]VertexID{{0, 1}}),
	}
	for name, g := range cases {
		h := g.Hash()
		if prev, ok := seen[h]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
}

// TestHashEmptyAndEdgeless covers degenerate shapes.
func TestHashEmptyAndEdgeless(t *testing.T) {
	edgeless := mustBuild(t, []int64{1, 2}, nil)
	if edgeless.Hash() == "" {
		t.Fatal("empty hash for edgeless graph")
	}
	other := mustBuild(t, []int64{2, 1}, nil)
	if edgeless.Hash() == other.Hash() {
		t.Fatal("weight order should matter (vertex ids are positional)")
	}
}

// hashV1 is the reference implementation of the v1 content hash as first
// written: a sort.Slice canonical edge order and one SHA-256 write per
// uvarint. Hash must reproduce it bit for bit, so neither the linear
// canonical order, the chunked writes nor the memo may change a digest.
func hashV1(g *Hypergraph) string {
	h := sha256.New()
	h.Write([]byte("distcover/hypergraph/v1\n"))
	var buf [binary.MaxVarintLen64]byte
	put := func(x uint64) {
		n := binary.PutUvarint(buf[:], x)
		h.Write(buf[:n])
	}
	put(uint64(g.NumVertices()))
	for v := 0; v < g.NumVertices(); v++ {
		put(uint64(g.Weight(VertexID(v))))
	}
	order := make([]int, g.NumEdges())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := g.Edge(EdgeID(order[i])), g.Edge(EdgeID(order[j]))
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	put(uint64(g.NumEdges()))
	for _, e := range order {
		vs := g.Edge(EdgeID(e))
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinGraphs are the shapes the digest pin covers: bucket sizes from one
// (regular) to hubs past the insertion-sort cutoff (power-law), identical
// edges, rank 1, and the degenerate empty and edgeless graphs.
func pinGraphs(t *testing.T) map[string]*Hypergraph {
	t.Helper()
	cfg := GenConfig{Seed: 11, MaxWeight: 1 << 40, Dist: WeightUniformRange}
	regular, err := RegularLike(3000, 6, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	powerLaw, err := PowerLaw(2000, 8000, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bucket := make([]int, powerLaw.NumVertices())
	for e := 0; e < powerLaw.NumEdges(); e++ {
		bucket[powerLaw.Edge(EdgeID(e))[0]]++
	}
	if slices.Max(bucket) <= 12 {
		t.Fatal("power-law pin graph has no bucket past the insertion-sort cutoff")
	}
	return map[string]*Hypergraph{
		"regular":   regular,
		"power-law": powerLaw,
		"duplicate-edges": mustBuild(t, []int64{3, 1, 4, 1},
			[][]VertexID{{2, 3}, {0, 1}, {3, 2}, {0, 1, 2}, {1, 0}, {0, 1}, {0}}),
		"rank-1":   mustBuild(t, []int64{2, 7, 1}, [][]VertexID{{2}, {0}, {2}, {1}}),
		"empty":    mustBuild(t, nil, nil),
		"zero":     new(Hypergraph),
		"edgeless": mustBuild(t, []int64{1, 2, 3}, nil),
	}
}

// TestHashMatchesV1 pins Hash to the v1 reference on every pin shape, on
// Clones (memoized or not), and along linear and branching Extend chains,
// whose canonical order comes from Extend's merge rather than a sort.
func TestHashMatchesV1(t *testing.T) {
	for name, g := range pinGraphs(t) {
		want := hashV1(g)
		if fresh := g.Clone().Hash(); fresh != want {
			t.Fatalf("%s: cold clone hash %s, want v1 %s", name, fresh, want)
		}
		if got := g.Hash(); got != want {
			t.Fatalf("%s: hash %s, want v1 %s", name, got, want)
		}
		if got := g.Hash(); got != want {
			t.Fatalf("%s: memoized hash %s, want v1 %s", name, got, want)
		}
		if got := g.Clone().Hash(); got != want {
			t.Fatalf("%s: clone of a hashed graph hashes %s, want v1 %s", name, got, want)
		}
		if g.NumVertices() == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		n := g.NumVertices()
		cur := g
		for step := 0; step < 6; step++ {
			addW := []int64{int64(1 + rng.Intn(9))}
			var addE [][]VertexID
			for i := 0; i < 1+rng.Intn(40); i++ {
				e := []VertexID{VertexID(rng.Intn(n + 1))}
				for j := rng.Intn(4); j > 0; j-- {
					e = append(e, VertexID(rng.Intn(n+1)))
				}
				addE = append(addE, e)
			}
			if step == 3 {
				addE = append(addE, cur.EdgeCopy(0)) // duplicate of an existing edge
			}
			next, err := cur.Extend(addW, addE)
			if err != nil {
				t.Fatalf("%s: extend %d: %v", name, step, err)
			}
			if next.digest.Load() != nil {
				t.Fatalf("%s: Extend computed the digest", name)
			}
			if step%2 == 1 {
				// Branch from the same base too: the copy path keeps its own order.
				branch, err := cur.Extend(addW, addE[:1])
				if err != nil {
					t.Fatal(err)
				}
				if got, want := branch.Hash(), hashV1(branch); got != want {
					t.Fatalf("%s: branch %d hash %s, want v1 %s", name, step, got, want)
				}
			}
			if got, want := next.Hash(), hashV1(next); got != want {
				t.Fatalf("%s: extend %d hash %s, want v1 %s", name, step, got, want)
			}
			if got, want := next.Clone().Hash(), hashV1(next); got != want {
				t.Fatalf("%s: clone after extend %d hash %s, want v1 %s", name, step, got, want)
			}
			cur, n = next, n+1
		}
	}
}

// TestHashConcurrentMemo has many goroutines hash one shared, never-hashed
// graph at once: every caller must see the v1 digest (run under -race to
// check the memo's publication).
func TestHashConcurrentMemo(t *testing.T) {
	g := pinGraphs(t)["power-law"]
	want := hashV1(g)
	var wg sync.WaitGroup
	got := make([]string, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.Hash()
		}()
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Fatalf("goroutine %d: hash %s, want v1 %s", i, h, want)
		}
	}
}
