package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share Req; Parent 0 marks a root. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; write dumps them at the
// end. All spans are recorded from the benchmark's own code, around calls
// into the program's public API.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(id, parent int, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent and returns fn's error.
func (t *tracer) timed(parent int, req int64, name string, fn func() error) error {
	id := t.newID()
	start := time.Now()
	err := fn()
	t.add(id, parent, req, name, start, time.Now())
	return err
}

// selfMS returns, for every span named name, its duration minus the part
// of its interval covered by its children, in milliseconds.
func (t *tracer) selfMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opSpan carries one operation's tracing state through the client call's
// context to the transport.
type opSpan struct {
	req  int64
	id   int
	keep bool // capture request and response bytes for the replay pass

	// Filled by the transport (the last HTTP exchange of the call wins).
	reqBytes  int64
	respBytes int64
	reqBody   []byte
	respBody  []byte
}

type spanKey struct{}

func spanFrom(ctx context.Context) *opSpan {
	sp, _ := ctx.Value(spanKey{}).(*opSpan)
	return sp
}

// transport is the benchmark clients' http.RoundTripper. It counts the
// bytes each exchange moves, records an http.roundtrip span (request
// written to response body closed) when the call is traced, and lets the
// smoke test tamper with responses.
type transport struct {
	base   http.RoundTripper
	tr     *tracer // nil while untraced
	tamper func(path string, body []byte) []byte
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := spanFrom(r.Context())
	var tr *tracer
	if sp != nil {
		tr = t.tr
	}
	if tr != nil && sp.keep && r.GetBody != nil {
		if body, err := r.GetBody(); err == nil {
			sp.reqBody, _ = io.ReadAll(body)
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	if t.tamper != nil {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		data = t.tamper(r.URL.Path, data)
		resp.Body = io.NopCloser(bytes.NewReader(data))
		resp.ContentLength = int64(len(data))
	}
	if tr == nil {
		return resp, nil
	}
	id := tr.newID()
	b := &tracedBody{rc: resp.Body, keep: sp.keep}
	b.onClose = func() {
		tr.add(id, sp.id, sp.req, "http.roundtrip", start, time.Now())
		sp.reqBytes, sp.respBytes = r.ContentLength, b.n
		if sp.keep {
			sp.respBody = b.buf.Bytes()
		}
	}
	resp.Body = b
	return resp, nil
}

// tracedBody counts (and, for kept operations, copies) the response bytes
// the client reads, and ends the round-trip span when the client closes it.
type tracedBody struct {
	rc      io.ReadCloser
	n       int64
	keep    bool
	buf     bytes.Buffer
	once    sync.Once
	onClose func()
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if b.keep {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(b.onClose)
	return err
}
