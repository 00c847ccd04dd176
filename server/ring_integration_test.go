package server_test

// In-process coordinator-ring integration tests: several server.Server
// instances joined by Config.RingSelf/RingMembers over real loopback
// listeners. The cross-process SIGKILL variant lives in
// cmd/coverd/ring_e2e_test.go; here the servers share one test binary, so
// routing, hop accounting and WAL takeover can be asserted against the
// exact metrics counters.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"distcover"
	"distcover/client"
	"distcover/internal/ring"
	"distcover/server"
	"distcover/server/api"
)

// ringMember is one in-process coordinator with its HTTP front.
type ringMember struct {
	addr string // host:port — the ring identity
	srv  *server.Server
	hs   *http.Server
	ln   net.Listener
	once sync.Once

	mu   sync.Mutex
	hops []hopRecord // forwarded (X-Coverd-Hop) requests this member served
}

// hopRecord is one forwarded request as the receiving member saw it, and
// the response bytes it wrote.
type hopRecord struct {
	path, hop  string
	body, resp []byte
}

// recordHops wraps the member's handler to capture every request that
// arrives with the hop header, byte for byte, together with the response.
func (m *ringMember) recordHops(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hop := r.Header.Get("X-Coverd-Hop")
		if hop == "" {
			next.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		tw := &teeWriter{ResponseWriter: w}
		next.ServeHTTP(tw, r)
		m.mu.Lock()
		m.hops = append(m.hops, hopRecord{path: r.URL.Path, hop: hop, body: body, resp: tw.buf.Bytes()})
		m.mu.Unlock()
	})
}

func (m *ringMember) hopLog() []hopRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]hopRecord(nil), m.hops...)
}

// teeWriter copies a response body on its way out.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (m *ringMember) url() string { return "http://" + m.addr }

// kill makes the member unreachable and releases it, front first so peers
// see connection refused, not a draining server. Idempotent, so tests can
// kill a member the Cleanup will also reach.
func (m *ringMember) kill() {
	m.once.Do(func() {
		m.hs.Close()
		m.srv.Close()
	})
}

// startRingMembers binds n loopback listeners (the addresses become the
// membership list), then opens one server per address with the full list.
func startRingMembers(t *testing.T, n int, walRoot string) []*ringMember {
	t.Helper()
	members := make([]*ringMember, n)
	addrs := make([]string, n)
	for i := range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		members[i] = &ringMember{addr: ln.Addr().String(), ln: ln}
		addrs[i] = members[i].addr
	}
	for _, m := range members {
		srv, err := server.Open(server.Config{
			Workers:     2,
			QueueDepth:  32,
			RingSelf:    m.addr,
			RingMembers: addrs,
			WALDir:      walRoot,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.srv = srv
		m.hs = &http.Server{Handler: m.recordHops(srv.Handler())}
		go m.hs.Serve(m.ln)
		t.Cleanup(m.kill)
	}
	return members
}

// byAddr returns the member with the given ring address.
func byAddr(t *testing.T, members []*ringMember, addr string) *ringMember {
	t.Helper()
	for _, m := range members {
		if m.addr == addr {
			return m
		}
	}
	t.Fatalf("no member %q", addr)
	return nil
}

// otherThan returns some member that is not addr.
func otherThan(t *testing.T, members []*ringMember, addr string) *ringMember {
	t.Helper()
	for _, m := range members {
		if m.addr != addr {
			return m
		}
	}
	t.Fatalf("all members are %q", addr)
	return nil
}

// TestRingRoutingIntegration drives a 3-coordinator ring through every
// routing path: ring discovery, a misrouted solve (server-side forward,
// exactly one hop), a misrouted session get (307 redirect) and update
// (forward), self-owned session ids, and a ring-aware client that routes
// directly and so adds no hops at all.
func TestRingRoutingIntegration(t *testing.T) {
	members := startRingMembers(t, 3, "")
	ctx := context.Background()

	// Every member serves the same membership over /v1/ring, and the
	// client-side rebuild accepts it.
	var addrs []string
	for _, m := range members {
		addrs = append(addrs, m.addr)
	}
	want, err := ring.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		c := client.New(m.url())
		on, err := c.DiscoverRing(ctx)
		if err != nil || !on {
			t.Fatalf("DiscoverRing via %s: on=%v err=%v", m.addr, on, err)
		}
		if got := c.RingMembers(); !reflect.DeepEqual(got, want.Members()) {
			t.Fatalf("membership via %s: got %v want %v", m.addr, got, want.Members())
		}
	}

	// Misrouted solve: send to a non-owner, expect the owner's result
	// through exactly one server-side hop.
	inst := genInstance(t, 60, 120, 3, 42)
	owner := byAddr(t, members, want.Owner(inst.Hash()))
	sender := otherThan(t, members, owner.addr)
	sc := client.New(sender.url()) // plain client: no ring discovery
	res, err := sc.Solve(ctx, inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := client.New(owner.url()).Solve(ctx, inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != direct.Weight || !reflect.DeepEqual(res.Cover, direct.Cover) {
		t.Fatalf("forwarded solve diverged: weight %d vs %d", res.Weight, direct.Weight)
	}
	if !direct.Cached {
		t.Fatal("direct re-solve missed the owner's cache: forward did not land on the owner")
	}
	sm, om := sender.srv.Metrics().Snapshot(), owner.srv.Metrics().Snapshot()
	if sm.RingForwards != 1 {
		t.Fatalf("sender forwards = %d, want 1", sm.RingForwards)
	}
	if om.RingHops != 1 {
		t.Fatalf("owner hops = %d, want exactly 1", om.RingHops)
	}

	// Sessions: the creating member mints an id it owns, so ownership is a
	// pure function of the id.
	creator := members[0]
	cc := client.New(creator.url())
	sess, err := cc.CreateSession(ctx, genInstance(t, 40, 80, 3, 7), api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := want.Owner(sess.ID); got != creator.addr {
		t.Fatalf("session id %s owned by %s, want its creator %s", sess.ID, got, creator.addr)
	}

	// Misrouted bodyless get ⇒ 307 redirect, which the default client
	// follows to the owner.
	wrong := otherThan(t, members, creator.addr)
	wc := client.New(wrong.url())
	info, err := wc.Session(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != sess.ID {
		t.Fatalf("redirected get returned %q", info.ID)
	}
	if n := wrong.srv.Metrics().Snapshot().RingRedirects; n != 1 {
		t.Fatalf("redirects = %d, want 1", n)
	}

	// Misrouted update ⇒ server-side forward; it must actually apply.
	upd, err := wc.UpdateSession(ctx, sess.ID, api.SessionDelta{Edges: [][]int{{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Session == nil || upd.Session.Updates != 1 {
		t.Fatalf("forwarded update did not apply: %+v", upd)
	}

	// A ring-aware client routes per key: its calls add no forwards and no
	// hops anywhere.
	rc := client.New(wrong.url())
	if on, err := rc.DiscoverRing(ctx); err != nil || !on {
		t.Fatalf("DiscoverRing: on=%v err=%v", on, err)
	}
	var beforeF, beforeH int64
	for _, m := range members {
		s := m.srv.Metrics().Snapshot()
		beforeF += s.RingForwards + s.RingRedirects
		beforeH += s.RingHops
	}
	if _, err := rc.UpdateSession(ctx, sess.ID, api.SessionDelta{Edges: [][]int{{4, 5, 6}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Session(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	var afterF, afterH int64
	for _, m := range members {
		s := m.srv.Metrics().Snapshot()
		afterF += s.RingForwards + s.RingRedirects
		afterH += s.RingHops
	}
	if afterF != beforeF || afterH != beforeH {
		t.Fatalf("ring-aware client caused routing traffic: forwards/redirects %d→%d, hops %d→%d",
			beforeF, afterF, beforeH, afterH)
	}

	// The aggregated listing sees the session exactly once across members.
	all, err := rc.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, s := range all {
		if s.ID == sess.ID {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("session listed %d times across the ring, want exactly 1", seen)
	}

	// Ring-aware delete, then the id is gone everywhere.
	if err := rc.CloseSession(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Session(ctx, sess.ID); err == nil {
		t.Fatal("session still served by its owner after delete")
	}
}

// TestRingTakeover kills a session's owner and asserts the surviving
// coordinator adopts the session from the dead member's WAL subdirectory:
// same state, Recovered flag set, takeover metrics ticked, and further
// updates served by the survivor.
func TestRingTakeover(t *testing.T) {
	walRoot := t.TempDir()
	members := startRingMembers(t, 2, walRoot)
	ctx := context.Background()

	owner := members[0]
	oc := client.New(owner.url())
	sess, err := oc.CreateSession(ctx, genInstance(t, 40, 80, 3, 9), api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := oc.UpdateSession(ctx, sess.ID, api.SessionDelta{Edges: [][]int{{2, 4, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	want := upd.Session

	owner.kill()

	// A ring-aware client first dials the dead owner, then falls back to
	// the survivor with the hop marker — the request that triggers the
	// survivor's WAL takeover.
	survivor := otherThan(t, members, owner.addr)
	vc := client.New(survivor.url())
	if on, err := vc.DiscoverRing(ctx); err != nil || !on {
		t.Fatalf("DiscoverRing: on=%v err=%v", on, err)
	}
	got, err := vc.Session(ctx, sess.ID)
	if err != nil {
		t.Fatalf("survivor did not take over the session: %v", err)
	}
	if !got.Recovered {
		t.Fatal("adopted session not marked Recovered")
	}
	if got.Updates != want.Updates || got.Edges != want.Edges ||
		got.Result.Weight != want.Result.Weight ||
		!reflect.DeepEqual(got.Result.Cover, want.Result.Cover) {
		t.Fatalf("adopted session diverged from the owner's last state:\n got %+v\nwant %+v", got, want)
	}
	s := survivor.srv.Metrics().Snapshot()
	if s.RingTakeovers < 1 {
		t.Fatalf("takeovers = %d, want ≥ 1", s.RingTakeovers)
	}
	if s.RingDowns < 1 {
		t.Fatalf("member-down marks = %d, want ≥ 1", s.RingDowns)
	}

	// The survivor now serves the session for real.
	upd2, err := vc.UpdateSession(ctx, sess.ID, api.SessionDelta{Edges: [][]int{{1, 3, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if upd2.Session.Updates != want.Updates+1 {
		t.Fatalf("post-takeover update count %d, want %d", upd2.Session.Updates, want.Updates+1)
	}
}

// TestRingForwardsBodyVerbatim sends a misrouted solve and a misrouted
// session update as hand-formatted JSON (reordered keys, extra whitespace
// — bytes a re-encode would change) and asserts the owner received the
// client's exact bytes with X-Coverd-Hop naming the forwarder, and that
// the client got the owner's response bytes unchanged.
func TestRingForwardsBodyVerbatim(t *testing.T) {
	members := startRingMembers(t, 2, "")
	r, err := ring.New([]string{members[0].addr, members[1].addr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// post sends body to member m and returns the response bytes.
	post := func(m *ringMember, path string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(m.url()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, out)
		}
		return out
	}
	// requireVerbatim asserts owner's only new hop is (path, body) from
	// sender and that it answered with exactly got.
	requireVerbatim := func(owner, sender *ringMember, before int, path string, body, got []byte) {
		t.Helper()
		hops := owner.hopLog()
		if len(hops) != before+1 {
			t.Fatalf("owner saw %d forwarded requests, want %d", len(hops), before+1)
		}
		h := hops[before]
		switch {
		case h.path != path:
			t.Fatalf("forwarded path %q, want %q", h.path, path)
		case h.hop != sender.addr:
			t.Fatalf("X-Coverd-Hop %q, want the forwarder %q", h.hop, sender.addr)
		case !bytes.Equal(h.body, body):
			t.Fatalf("owner received\n%s\nclient sent\n%s", h.body, body)
		case !bytes.Equal(h.resp, got):
			t.Fatalf("client got\n%s\nowner answered\n%s", got, h.resp)
		}
	}

	instJSON := []byte(`{ "edges" : [ [2, 0], [1,2 ],[3,1,0] ],
	  "weights":[ 3, 1, 4, 1 ] }`)
	inst, err := distcover.ReadInstance(bytes.NewReader(instJSON))
	if err != nil {
		t.Fatal(err)
	}
	owner := byAddr(t, members, r.Owner(inst.Hash()))
	sender := otherThan(t, members, owner.addr)
	solveBody := []byte(fmt.Sprintf("{\"options\": {\"epsilon\":0.5} ,\n \"instance\": %s }\n", instJSON))
	got := post(sender, "/v1/solve", solveBody)
	requireVerbatim(owner, sender, 0, "/v1/solve", solveBody, got)
	if sender.srv.Metrics().Snapshot().RingForwards != 1 {
		t.Fatal("solve was not forwarded")
	}

	sess, err := client.New(owner.url()).CreateSession(context.Background(), inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/sessions/" + sess.ID + "/update"
	updBody := []byte("{\"edges\":[[ 4,2 ] , [0, 4]],  \"weights\" : [2]}")
	got = post(sender, path, updBody)
	requireVerbatim(owner, sender, 1, path, updBody, got)
	var upd api.SessionUpdateResult
	if err := json.Unmarshal(got, &upd); err != nil {
		t.Fatal(err)
	}
	if upd.Session == nil || upd.Session.Updates != 1 || upd.NewEdges != 2 {
		t.Fatalf("forwarded update did not apply: %+v", upd)
	}
}

// TestRingSolveOwnerDown kills an instance's owner and sends the solve to
// the survivor: the forward fails at the transport level, the owner is
// marked down, and the survivor — which dropped its parsed copy before
// forwarding — rebuilds the job and serves the solve itself.
func TestRingSolveOwnerDown(t *testing.T) {
	members := startRingMembers(t, 2, "")
	r, err := ring.New([]string{members[0].addr, members[1].addr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := genInstance(t, 50, 100, 3, 5)
	owner := byAddr(t, members, r.Owner(inst.Hash()))
	survivor := otherThan(t, members, owner.addr)
	want, err := client.New(owner.url()).Solve(context.Background(), inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	owner.kill()

	got, err := client.New(survivor.url()).Solve(context.Background(), inst, api.SolveOptions{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight || !reflect.DeepEqual(got.Cover, want.Cover) || got.InstanceHash != want.InstanceHash {
		t.Fatalf("survivor's solve diverged from the owner's: weight %d vs %d", got.Weight, want.Weight)
	}
	m := survivor.srv.Metrics().Snapshot()
	if m.RingDowns < 1 || m.RingForwards != 0 {
		t.Fatalf("survivor: member-down marks %d (want ≥ 1), forwards %d (want 0)", m.RingDowns, m.RingForwards)
	}
}
