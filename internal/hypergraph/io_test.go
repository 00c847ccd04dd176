package hypergraph

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	g, err := UniformRandom(25, 40, 3, GenConfig{Seed: 11, Dist: WeightUniformRange, MaxWeight: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var h Hypergraph
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	data2, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("JSON round trip not stable")
	}
	if h.Rank() != g.Rank() || h.MaxDegree() != g.MaxDegree() {
		t.Error("round trip changed derived stats")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		data string
	}{
		{"bad json", `{`},
		{"empty edge", `{"weights":[1],"edges":[[]]}`},
		{"range", `{"weights":[1],"edges":[[4]]}`},
		{"zero weight", `{"weights":[0],"edges":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var g Hypergraph
			if err := json.Unmarshal([]byte(tt.data), &g); err == nil {
				t.Errorf("Unmarshal(%s) succeeded, want error", tt.data)
			}
		})
	}
}

func TestWriteToReadFrom(t *testing.T) {
	g := MustNew([]int64{2, 3}, [][]VertexID{{0, 1}})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	h, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if h.NumVertices() != 2 || h.NumEdges() != 1 || h.Weight(1) != 3 {
		t.Errorf("round trip mismatch: %s", h)
	}
}

func TestReadFromError(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("not json")); err == nil {
		t.Error("ReadFrom(garbage) succeeded")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw % 30)
		f := 2
		if f > n {
			f = n
		}
		g, err := UniformRandom(n, m, f, GenConfig{Seed: seed, Dist: WeightUniformRange, MaxWeight: 7})
		if err != nil {
			return false
		}
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var h Hypergraph
		if err := json.Unmarshal(data, &h); err != nil {
			return false
		}
		data2, err := json.Marshal(&h)
		return err == nil && bytes.Equal(data, data2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestScanInstanceShape pins which inputs the one-pass scanner takes
// itself and which it leaves to encoding/json, so a scanner that silently
// declines everything (and passes the differential fuzz trivially) fails.
func TestScanInstanceShape(t *testing.T) {
	g, err := PowerLaw(300, 900, 4, GenConfig{Seed: 3, MaxWeight: 1 << 40, Dist: WeightUniformRange})
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := g.MarshalJSON()
	scanned := []string{
		string(canonical),
		decodeSeeds[0], decodeSeeds[1], decodeSeeds[2],
		`{}`, `{"weights":[5]}`, `{"edges":[[0]]}`, `{"weights":[1],"edges":[[]]}`,
		`{"weights":[-0,0],"edges":[[1,-0]]}`,
		`{"weights":[9223372036854775807],"edges":[[-9223372036854775808]]}`,
	}
	fallback := []string{
		`null`, `{"weights":null}`, `{"weights":[1],"edges":[null]}`,
		`{"weights":[1],"weights":[1]}`, `{"extra":1}`, `{"Weights":[1]}`,
		`{"weights":[1e2]}`, `{"weights":[1.0]}`,
		`{"weights":[01]}`, `{"weights":[9223372036854775808]}`,
		`{"edges":[[-9223372036854775809]]}`, `{}x`, `{"weights":[1],}`, `[1]`, ``,
	}
	for _, s := range scanned {
		if _, _, _, ok := scanInstance([]byte(s)); !ok {
			t.Errorf("scanner declined %.60q", s)
		}
	}
	for _, s := range fallback {
		if _, _, _, ok := scanInstance([]byte(s)); ok {
			t.Errorf("scanner took %q, which needs encoding/json", s)
		}
	}
	var h Hypergraph
	if err := h.UnmarshalJSON(canonical); err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, &h, g)
	if out, _ := h.MarshalJSON(); !bytes.Equal(out, canonical) {
		t.Fatal("scanned instance re-encodes differently")
	}
}

// TestMarshalMatchesEncodingJSON checks the appender against the
// encoding/json rendering of the same jsonInstance, byte for byte.
func TestMarshalMatchesEncodingJSON(t *testing.T) {
	empty := MustNew(nil, nil)
	g, err := UniformRandom(50, 120, 3, GenConfig{Seed: 5, MaxWeight: 1 << 50, Dist: WeightUniformRange})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Hypergraph{empty, new(Hypergraph), g} {
		inst := jsonInstance{Weights: g.Weights(), Edges: make([][]int, g.NumEdges())}
		for e := range inst.Edges {
			inst.Edges[e] = []int{}
			for _, v := range g.Edge(EdgeID(e)) {
				inst.Edges[e] = append(inst.Edges[e], int(v))
			}
		}
		want, err := json.Marshal(inst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON\n got %s\nwant %s", got, want)
		}
	}
}

// TestMarshalSizeBound checks MarshalJSON fits its up-front size bound, so
// the encoding never reallocates mid-write.
func TestMarshalSizeBound(t *testing.T) {
	g, err := PowerLaw(1200, 3000, 4, GenConfig{Seed: 9, MaxWeight: 1 << 45, Dist: WeightUniformRange})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Hypergraph{new(Hypergraph), MustNew([]int64{7}, nil), MustNew([]int64{1, 10}, [][]VertexID{{0, 1}, {1}}), g} {
		out, _ := g.MarshalJSON()
		if bound := g.jsonSizeBound(); len(out) > bound || cap(out) != bound {
			t.Fatalf("%v: encoded %d bytes into cap %d, bound %d", g, len(out), cap(out), bound)
		}
	}
}
