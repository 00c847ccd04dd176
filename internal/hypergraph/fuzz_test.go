package hypergraph

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzJSONDecode throws arbitrary bytes at the instance decoder: it must
// never panic, and anything it accepts must validate and round-trip.
func FuzzJSONDecode(f *testing.F) {
	f.Add([]byte(`{"weights":[1,2],"edges":[[0,1]]}`))
	f.Add([]byte(`{"weights":[],"edges":[]}`))
	f.Add([]byte(`{"weights":[5],"edges":[[0],[0]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"weights":[0],"edges":[[9]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Hypergraph
		if err := json.Unmarshal(data, &g); err != nil {
			return // rejected; fine
		}
		if err := Validate(&g); err != nil {
			t.Fatalf("accepted instance fails Validate: %v", err)
		}
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("accepted instance fails Marshal: %v", err)
		}
		var g2 Hypergraph
		if err := json.Unmarshal(out, &g2); err != nil {
			t.Fatalf("re-encoded instance rejected: %v", err)
		}
		out2, err := json.Marshal(&g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("round trip not stable")
		}
	})
}

// decodeSeeds are inputs around the edges of the strict shape the one-pass
// scanner accepts: whitespace, null, duplicate, unknown, escaped and
// case-variant keys, non-integer and out-of-range numbers, trailing bytes.
var decodeSeeds = []string{
	`{"weights":[1,2],"edges":[[0,1]]}`,
	"  {\n\t\"weights\" : [ 1 ,\r2 ] ,\n \"edges\":[ [ 1 , 0 , 1 ] , [0] ] }\n",
	`{"edges":[[1,0]],"weights":[3,4]}`,
	`{}`,
	`{"weights":[],"edges":[]}`,
	`{"weights":[5]}`,
	`{"edges":[]}`,
	`{"edges":[[0]]}`,
	`null`,
	` null `,
	`{"weights":null,"edges":[[0]]}`,
	`{"weights":[1],"edges":null}`,
	`{"weights":[1],"edges":[null]}`,
	`{"weights":[1],"edges":[[]]}`,
	`{"weights":[1],"weights":[2],"edges":[[0]]}`,
	`{"weights":[1],"edges":[[0]],"edges":[[0,0]]}`,
	`{"weights":[1],"edges":[[0]],"extra":true}`,
	`{"weights":[1],"edges":[[0]]}`,
	`{"Weights":[1],"EDGES":[[0]]}`,
	`{"weights":[1e2],"edges":[[0]]}`,
	`{"weights":[1.0],"edges":[[0]]}`,
	`{"weights":[1],"edges":[[-0]]}`,
	`{"weights":[-0],"edges":[[0]]}`,
	`{"weights":[01],"edges":[[0]]}`,
	`{"weights":[9223372036854775807],"edges":[[0]]}`,
	`{"weights":[9223372036854775808],"edges":[[0]]}`,
	`{"weights":[1],"edges":[[-9223372036854775808]]}`,
	`{"weights":[1],"edges":[[-9223372036854775809]]}`,
	`{"weights":[1],"edges":[[99999999999999999999]]}`,
	`{"weights":[1],"edges":[[0]]}x`,
	`{"weights":[1],"edges":[[0]]}{}`,
	`{"weights":[1],"edges":[[0]],}`,
	`{"weights":[1,],"edges":[[0]]}`,
	`{"weights":[1],"edges":[[0],]}`,
	`{"weights":[1] "edges":[[0]]}`,
	`{"weights":[0,-3],"edges":[[1,7]]}`,
	`{"weights":[2,2],"edges":[[1],[9],[]]}`,
	`{"weights":[1],"edges":[["0"]]}`,
	`[1]`,
	`{`,
	``,
}

// FuzzInstanceDecode differentially tests the instance decoder against the
// encoding/json path it falls back to (decodeInstanceStd): on every input
// both must agree on accept/reject with the same error, and on accept
// build identical CSR arrays, rank, Δ and content hash.
func FuzzInstanceDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Hypergraph
		w, off, verts, wantErr := decodeInstanceStd(data)
		if wantErr == nil {
			wantErr = want.init(w, off, verts)
		}
		var got Hypergraph
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoder err %v, encoding/json err %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("decoder err %q, encoding/json err %q", gotErr, wantErr)
			}
			return
		}
		requireSameGraph(t, &got, &want)
	})
}

// requireSameGraph asserts two graphs have identical arrays, derived
// statistics and content hash.
func requireSameGraph(t *testing.T, got, want *Hypergraph) {
	t.Helper()
	switch {
	case !slices.Equal(got.weights, want.weights):
		t.Fatalf("weights %v, want %v", got.weights, want.weights)
	case !slices.Equal(got.edgeOff, want.edgeOff):
		t.Fatalf("edgeOff %v, want %v", got.edgeOff, want.edgeOff)
	case !slices.Equal(got.edgeVerts, want.edgeVerts):
		t.Fatalf("edgeVerts %v, want %v", got.edgeVerts, want.edgeVerts)
	case !slices.Equal(got.incOff, want.incOff):
		t.Fatalf("incOff %v, want %v", got.incOff, want.incOff)
	case !slices.Equal(got.incEdges, want.incEdges):
		t.Fatalf("incEdges %v, want %v", got.incEdges, want.incEdges)
	case got.rank != want.rank || got.maxDegree != want.maxDegree:
		t.Fatalf("rank/Δ %d/%d, want %d/%d", got.rank, got.maxDegree, want.rank, want.maxDegree)
	case got.Hash() != want.Hash():
		t.Fatalf("hash %s, want %s", got.Hash(), want.Hash())
	}
}
