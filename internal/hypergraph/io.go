package hypergraph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// jsonInstance is the on-disk JSON shape of a hypergraph instance, as the
// encoding/json fallback decoder sees it.
type jsonInstance struct {
	Weights []int64 `json:"weights"`
	Edges   [][]int `json:"edges"`
}

// MarshalJSON encodes the hypergraph as {"weights":[...],"edges":[[...]]}.
func (g *Hypergraph) MarshalJSON() ([]byte, error) {
	return g.appendJSON(make([]byte, 0, g.jsonSizeBound())), nil
}

// jsonSizeBound bounds the length of appendJSON's output from above, so
// the encoding is written into one allocation: every weight takes at most
// as many digits as the largest one, every vertex id as many as n-1.
func (g *Hypergraph) jsonSizeBound() int {
	n, vol := len(g.weights), len(g.edgeVerts)
	wDigits := len(strconv.FormatInt(g.MaxWeight(), 10))
	vDigits := len(strconv.Itoa(max(n-1, 0)))
	// Each number is followed by at most one comma; each row adds "[]".
	return len(`{"weights":[],"edges":[]}`) + n*(wDigits+1) + vol*(vDigits+1) + 2*g.NumEdges()
}

// appendJSON appends the compact JSON encoding of g to buf: the exact bytes
// encoding/json produces for a jsonInstance, without the intermediate
// [][]int or reflection.
func (g *Hypergraph) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"weights":[`...)
	for i, w := range g.weights {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, w, 10)
	}
	buf = append(buf, `],"edges":[`...)
	for e, m := 0, g.NumEdges(); e < m; e++ {
		if e > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for i, v := range g.Edge(EdgeID(e)) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// UnmarshalJSON decodes and validates a hypergraph. Input of the strict
// shape MarshalJSON writes is scanned straight into the CSR arrays; any
// other input takes the encoding/json path.
func (g *Hypergraph) UnmarshalJSON(data []byte) error {
	weights, edgeOff, edgeVerts, ok := scanInstance(data)
	if !ok {
		var err error
		if weights, edgeOff, edgeVerts, err = decodeInstanceStd(data); err != nil {
			return err
		}
	}
	return g.init(weights, edgeOff, edgeVerts)
}

// decodeInstanceStd is the general decoder: encoding/json into a
// jsonInstance, then through a Builder into unvalidated CSR arrays. It
// accepts everything encoding/json does (null, case-insensitive, escaped
// and duplicate keys, ...) and is the oracle the strict scanner is fuzzed
// against.
func decodeInstanceStd(data []byte) ([]int64, []int, []VertexID, error) {
	var inst jsonInstance
	if err := json.Unmarshal(data, &inst); err != nil {
		return nil, nil, nil, fmt.Errorf("hypergraph: decode: %w", err)
	}
	b := NewBuilder(len(inst.Weights), len(inst.Edges))
	for _, w := range inst.Weights {
		b.AddVertex(w)
	}
	for _, row := range inst.Edges {
		vs := make([]VertexID, len(row))
		for i, v := range row {
			vs[i] = VertexID(v)
		}
		b.AddEdge(vs...)
	}
	weights, edgeOff, edgeVerts := b.csr()
	return weights, edgeOff, edgeVerts, nil
}

// scanInstance parses data of the strict shape
//
//	{"weights":[int,...],"edges":[[int,...],...]}
//
// straight into CSR arrays in one pass, sorting and deduplicating each edge
// row in place as it closes. Either key may be missing or come first; JSON
// whitespace may sit between any two tokens. Anything else — null, an
// unknown, escaped, case-variant or repeated key, a fraction, exponent,
// leading zero or out-of-range integer, trailing bytes, malformed JSON —
// reports ok=false and the caller falls back to decodeInstanceStd, which
// either gives the input the same meaning or produces encoding/json's
// error. The scanner never decides a rejection itself, so the two decoders
// agree on every input by construction; FuzzInstanceDecode checks it.
func scanInstance(data []byte) (weights []int64, edgeOff []int, edgeVerts []VertexID, ok bool) {
	s := scanner{data: data}
	if !s.consume('{') {
		return nil, nil, nil, false
	}
	edgeOff = []int{0}
	seenW, seenE := false, false
	if !s.consume('}') {
		for {
			switch s.key() {
			case "weights":
				if seenW {
					return nil, nil, nil, false
				}
				seenW = true
				if weights, ok = s.weights(); !ok {
					return nil, nil, nil, false
				}
			case "edges":
				if seenE {
					return nil, nil, nil, false
				}
				seenE = true
				if edgeOff, edgeVerts, ok = s.edges(); !ok {
					return nil, nil, nil, false
				}
			default:
				return nil, nil, nil, false
			}
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return nil, nil, nil, false
		}
	}
	s.skipSpace()
	if s.pos != len(data) {
		return nil, nil, nil, false
	}
	return weights, edgeOff, edgeVerts, true
}

// scanner is the cursor of scanInstance.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// key reads `"name":` and returns name if it is one of the two keys the
// strict shape knows, spelled exactly, or "" otherwise.
func (s *scanner) key() string {
	for _, k := range [...]string{"weights", "edges"} {
		s.skipSpace()
		end := s.pos + len(k) + 2
		if end <= len(s.data) && s.data[s.pos] == '"' && s.data[end-1] == '"' &&
			string(s.data[s.pos+1:end-1]) == k {
			s.pos = end
			if s.consume(':') {
				return k
			}
			return ""
		}
	}
	return ""
}

// weights reads a JSON array of int64.
func (s *scanner) weights() ([]int64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	var out []int64
	if s.consume(']') {
		return out, true
	}
	for {
		s.skipSpace()
		w, ok := s.integer(math.MinInt64, math.MaxInt64)
		if !ok {
			return nil, false
		}
		out = append(out, w)
		if s.consume(',') {
			continue
		}
		return out, s.consume(']')
	}
}

// edges reads a JSON array of int arrays into an edge CSR, each row sorted
// and deduplicated in place when it closes.
func (s *scanner) edges() (off []int, verts []VertexID, ok bool) {
	if !s.consume('[') {
		return nil, nil, false
	}
	off = []int{0}
	if s.consume(']') {
		return off, verts, true
	}
	for {
		if !s.consume('[') {
			return nil, nil, false
		}
		start := len(verts)
		if !s.consume(']') {
			for {
				s.skipSpace()
				v, ok := s.integer(math.MinInt, math.MaxInt)
				if !ok {
					return nil, nil, false
				}
				verts = append(verts, VertexID(v))
				if s.consume(',') {
					continue
				}
				if !s.consume(']') {
					return nil, nil, false
				}
				break
			}
		}
		verts = verts[:start+sortUniqueInPlace(verts[start:])]
		off = append(off, len(verts))
		if s.consume(',') {
			continue
		}
		return off, verts, s.consume(']')
	}
}

// integer reads a JSON number that is an integer in [lo, hi]: an optional
// minus sign and digits without a leading zero. A fraction or exponent
// stops it at the '.' or 'e', which the caller's next token check rejects.
func (s *scanner) integer(lo, hi int64) (int64, bool) {
	i, d := s.pos, s.data
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	// 19 digits cannot overflow uint64; 20 always exceed the int64 range.
	digits := i - start
	if digits == 0 || digits > 19 || (digits > 1 && d[start] == '0') {
		return 0, false
	}
	var v int64
	if neg {
		if u > uint64(-(lo+1))+1 {
			return 0, false
		}
		v = int64(-u)
	} else {
		if u > uint64(hi) {
			return 0, false
		}
		v = int64(u)
	}
	s.pos = i
	return v, true
}

// WriteTo serializes g as JSON to w.
func (g *Hypergraph) WriteTo(w io.Writer) (int64, error) {
	data, _ := g.MarshalJSON()
	n, err := w.Write(data)
	return int64(n), err
}

// ReadFrom parses a JSON hypergraph from r.
func ReadFrom(r io.Reader) (*Hypergraph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("hypergraph: read: %w", err)
	}
	var g Hypergraph
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &g, nil
}

// readAll is io.ReadAll, except that a reader which knows how many bytes
// it holds (bytes.Reader, bytes.Buffer, strings.Reader) gets a buffer of
// exactly that size up front instead of a doubling series.
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if lr, ok := r.(interface{ Len() int }); ok {
		size = lr.Len() + 1 // +1: the final Read that reports EOF needs room
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
