package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"testing"
	"time"

	"distcover"
	"distcover/client"
	"distcover/server"
	"distcover/server/api"
)

func testInstance(t *testing.T) *distcover.Instance {
	t.Helper()
	inst, err := distcover.NewInstance(
		[]int64{3, 1, 4, 1, 5},
		[][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestEncodeInstanceRoundTrips(t *testing.T) {
	inst := testInstance(t)
	raw, err := client.EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Weights []int64 `json:"weights"`
		Edges   [][]int `json:"edges"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("wire form is not the codec JSON: %v", err)
	}
	if len(decoded.Weights) != 5 || len(decoded.Edges) != 5 {
		t.Fatalf("lost data in encoding: %+v", decoded)
	}
}

func TestClientAgainstRealServer(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL + "/") // trailing slash must be tolerated

	inst := testInstance(t)
	ctx := context.Background()

	res, err := c.Solve(ctx, inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("infeasible cover")
	}
	if res.InstanceHash != inst.Hash() {
		t.Fatalf("server hash %q != local hash %q", res.InstanceHash, inst.Hash())
	}

	raw, err := client.EncodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	items, err := c.SolveBatch(ctx, []api.SolveRequest{
		{Instance: raw, Options: api.SolveOptions{Epsilon: 0.5}},
		{Instance: raw, Options: api.SolveOptions{Epsilon: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Result == nil || !items[0].Result.Cached {
		t.Fatalf("first batch item should hit the cache from the earlier Solve: %+v", items[0])
	}
	if items[1].Result == nil || items[1].Result.Cached {
		t.Fatalf("different epsilon must not share a cache entry: %+v", items[1])
	}

	id, err := c.SolveAsync(ctx, api.SolveRequest{Instance: raw, Options: api.SolveOptions{Epsilon: 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := c.Wait(waitCtx, id, time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestClientReusesConnections: a response larger than the server's write
// buffer is sent chunked, and the client must read it to EOF (past the
// JSON value, through the terminating chunk) for net/http to return the
// connection to the pool instead of dialling a new one per call.
func TestClientReusesConnections(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	// 1000 disjoint edges over 2000 unit-weight vertices: every edge puts
	// a vertex in the cover, so the result lists at least 1000 ids.
	const m = 1000
	weights := make([]int64, 2*m)
	edges := make([][]int, m)
	for i := range edges {
		weights[2*i], weights[2*i+1] = 1, 1
		edges[i] = []int{2 * i, 2*i + 1}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}

	var conns, reused int
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			conns++
			if info.Reused {
				reused++
			}
		},
	})
	const solves = 20
	for i := 0; i < solves; i++ {
		res, err := c.Solve(ctx, inst, api.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if enc, _ := json.Marshal(res); len(enc) <= 4096 {
				t.Fatalf("response is %d bytes; the test needs one larger than 4 KiB", len(enc))
			}
		}
	}
	if conns != solves || reused < solves-1 {
		t.Fatalf("%d of %d solves reused a connection, want %d", reused, conns, solves-1)
	}
}

func TestClientErrorMapping(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"job queue full"}`, http.StatusTooManyRequests)
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(api.Error{Error: "boom"})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	if _, err := c.Solve(ctx, testInstance(t), api.SolveOptions{}); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("429: want ErrBusy, got %v", err)
	}
	if _, err := c.Job(ctx, "zzz"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("404: want ErrNotFound, got %v", err)
	}
	_, err := c.Health(ctx)
	if err == nil || errors.Is(err, client.ErrBusy) || errors.Is(err, client.ErrNotFound) {
		t.Fatalf("500: want generic error carrying the server message, got %v", err)
	}
	if got := err.Error(); !contains(got, "boom") {
		t.Fatalf("error should surface the server message, got %q", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
