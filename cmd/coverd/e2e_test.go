package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distcover"
	"distcover/client"
	"distcover/server/api"
)

// TestClusterE2EProcesses is the CI cluster job: it builds the coverd
// binary, spawns three real daemon processes — two pure peer workers and
// one coordinator configured with -peers — then solves an instance and
// streams three delta batches through the coordinator's HTTP API with the
// "cluster" engine, comparing every step against the coordinator's own
// single-process flat engine. Gated behind COVERD_CLUSTER_E2E=1 because it
// compiles and forks; `go test ./cmd/coverd` stays fast everywhere else.
func TestClusterE2EProcesses(t *testing.T) {
	if os.Getenv("COVERD_CLUSTER_E2E") != "1" {
		t.Skip("set COVERD_CLUSTER_E2E=1 to run the multi-process cluster E2E")
	}
	bin := filepath.Join(t.TempDir(), "coverd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build coverd: %v", err)
	}

	// Two workers serving only the peer protocol (HTTP on an ephemeral
	// port we ignore), everything on 127.0.0.1:0 — no fixed ports.
	peer1 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0")
	peer2 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0")
	coord := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0",
		"-peers", peer1.peerAddr+","+peer2.peerAddr)

	c := client.New("http://" + coord.httpAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	weights := make([]int64, 400)
	state := uint64(0xC0FFEE)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for i := range weights {
		weights[i] = int64(1 + next(300))
	}
	edges := make([][]int, 1200)
	for e := range edges {
		edges[e] = []int{next(400), next(400), next(400)}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}

	clusterSess, err := c.CreateSession(ctx, inst, api.SolveOptions{Engine: api.EngineCluster})
	if err != nil {
		t.Fatalf("cluster session: %v", err)
	}
	flatSess, err := c.CreateSession(ctx, inst, api.SolveOptions{Engine: api.EngineFlat})
	if err != nil {
		t.Fatalf("flat session: %v", err)
	}
	requireSameSession(t, "initial solve", clusterSess, flatSess)

	n := 400
	for batch := 0; batch < 3; batch++ {
		var d api.SessionDelta
		d.Weights = []int64{int64(10 + batch), int64(20 + batch)}
		for i := 0; i < 40; i++ {
			d.Edges = append(d.Edges, []int{next(n + 2), next(n), next(n)})
		}
		n += 2
		cu, err := c.UpdateSession(ctx, clusterSess.ID, d)
		if err != nil {
			t.Fatalf("batch %d: cluster update: %v", batch, err)
		}
		fu, err := c.UpdateSession(ctx, flatSess.ID, d)
		if err != nil {
			t.Fatalf("batch %d: flat update: %v", batch, err)
		}
		requireSameSession(t, fmt.Sprintf("batch %d", batch), cu.Session, fu.Session)
		if cu.Session.Result.RatioBound > cu.Session.CertifiedBound*(1+1e-9) {
			t.Fatalf("batch %d: ratio %g exceeds certificate %g",
				batch, cu.Session.Result.RatioBound, cu.Session.CertifiedBound)
		}
	}

	// Traced cluster solve: the report must break the run down per
	// iteration and per peer, and its trace id must appear in the slog
	// output of the coordinator and both peer processes.
	traced, err := c.Solve(ctx, inst, api.SolveOptions{Engine: api.EngineCluster, Trace: true})
	if err != nil {
		t.Fatalf("traced cluster solve: %v", err)
	}
	rep := traced.Report
	if rep == nil {
		t.Fatal("trace=true returned no report")
	}
	if rep.TraceID == "" || rep.Engine != "cluster" {
		t.Fatalf("report lacks identity: trace_id=%q engine=%q", rep.TraceID, rep.Engine)
	}
	if len(rep.Iterations) < 2 {
		t.Fatalf("report has %d iteration rows, want per-iteration detail", len(rep.Iterations))
	}
	var waited float64
	for _, it := range rep.Iterations[1:] {
		waited += it.BoundaryWaitSeconds + it.CoverageWaitSeconds
	}
	if waited <= 0 {
		t.Fatal("report iterations carry no exchange wait timings")
	}
	if len(rep.Peers) != 2 {
		t.Fatalf("report has %d peer rows, want 2", len(rep.Peers))
	}
	for _, p := range rep.Peers {
		if p.Exchanges == 0 || p.BytesSent == 0 || p.BytesReceived == 0 {
			t.Fatalf("peer %s row is empty: %+v", p.Peer, p)
		}
	}
	// The untraced sessions above warm the cache for this instance+options
	// identity; the traced solve must still have run for real.
	if traced.Cached {
		t.Fatal("traced solve was served from the cache")
	}

	// slog correlation: one trace id across all three processes.
	deadline := time.Now().Add(10 * time.Second)
	for _, proc := range []struct {
		name string
		p    *coverdProc
	}{{"coordinator", coord}, {"peer1", peer1}, {"peer2", peer2}} {
		for !proc.p.logContains("trace_id=" + rep.TraceID) {
			if time.Now().After(deadline) {
				t.Fatalf("%s log never mentioned trace_id=%s", proc.name, rep.TraceID)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Every process must expose well-formed Prometheus text with the
	// documented telemetry families; the cluster-exchange series must be
	// populated on the coordinator (per peer address) and on the peers
	// (peer="coordinator").
	for _, proc := range []struct {
		name string
		p    *coverdProc
	}{{"coordinator", coord}, {"peer1", peer1}, {"peer2", peer2}} {
		text := scrapeMetrics(t, proc.p.httpAddr)
		checkExposition(t, proc.name, text)
		if !strings.Contains(text, "coverd_cluster_exchange_seconds_bucket{peer=") {
			t.Fatalf("%s /metrics has no cluster exchange series", proc.name)
		}
		if !strings.Contains(text, `coverd_cluster_frames_total{direction="sent"}`) {
			t.Fatalf("%s /metrics has no cluster frame counters", proc.name)
		}
	}
	coordText := scrapeMetrics(t, coord.httpAddr)
	for _, peerAddr := range []string{peer1.peerAddr, peer2.peerAddr} {
		if !strings.Contains(coordText, fmt.Sprintf("peer=%q", peerAddr)) {
			t.Fatalf("coordinator /metrics lacks exchange series for peer %s", peerAddr)
		}
	}
	for _, p := range []*coverdProc{peer1, peer2} {
		if !strings.Contains(scrapeMetrics(t, p.httpAddr), `engine="cluster-peer"`) {
			t.Fatal("peer /metrics lacks cluster-peer phase series")
		}
	}

	// Instance fabric: the first solve of a fresh instance misses every
	// peer's content-addressed cache exactly once (one re-sync per peer);
	// the repeat ships only the hash and hits everywhere. NoCache keeps the
	// coordinator's result cache from short-circuiting the repeat.
	peerCache := func(p *coverdProc) (hits, misses int) {
		text := scrapeMetrics(t, p.httpAddr)
		return metricInt(t, text, "coverd_peer_instance_cache_hits_total"),
			metricInt(t, text, "coverd_peer_instance_cache_misses_total")
	}
	edges2 := make([][]int, 800)
	for e := range edges2 {
		edges2[e] = []int{next(400), next(400), next(400)}
	}
	inst2, err := distcover.NewInstance(weights, edges2)
	if err != nil {
		t.Fatal(err)
	}
	flat2, err := c.Solve(ctx, inst2, api.SolveOptions{Engine: api.EngineFlat, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := peerCache(peer1)
	h2, m2 := peerCache(peer2)
	clusterOpts := api.SolveOptions{Engine: api.EngineCluster, NoCache: true}
	first2, err := c.Solve(ctx, inst2, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first2.Cover, flat2.Cover) || first2.Weight != flat2.Weight {
		t.Fatal("cluster solve of inst2 diverges from flat")
	}
	if h, m := peerCache(peer1); h != h1 || m != m1+1 {
		t.Fatalf("peer1 after first contact: hits %d→%d misses %d→%d, want one miss", h1, h, m1, m)
	}
	if h, m := peerCache(peer2); h != h2 || m != m2+1 {
		t.Fatalf("peer2 after first contact: hits %d→%d misses %d→%d, want one miss", h2, h, m2, m)
	}
	repeat2, err := c.Solve(ctx, inst2, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repeat2.Cover, flat2.Cover) || repeat2.Weight != flat2.Weight {
		t.Fatal("repeat cluster solve diverges")
	}
	if h, m := peerCache(peer1); h != h1+1 || m != m1+1 {
		t.Fatalf("peer1 repeat re-synced: hits %d misses %d (want %d/%d)", h, m, h1+1, m1+1)
	}
	if h, m := peerCache(peer2); h != h2+1 || m != m2+1 {
		t.Fatalf("peer2 repeat re-synced: hits %d misses %d (want %d/%d)", h, m, h2+1, m2+1)
	}

	// Peer crash + restart on the same port: the reborn peer's cache is
	// empty, so the coordinator's next solve re-syncs it (a miss on the new
	// process) while the surviving peer keeps hitting.
	h2c, _ := peerCache(peer2)
	peer1.kill(t)
	peer1r := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", peer1.peerAddr)
	after, err := c.Solve(ctx, inst2, clusterOpts)
	if err != nil {
		t.Fatalf("solve after peer restart: %v", err)
	}
	if !reflect.DeepEqual(after.Cover, flat2.Cover) || after.Weight != flat2.Weight {
		t.Fatal("solve after peer restart diverges")
	}
	if h, m := peerCache(peer1r); h != 0 || m != 1 {
		t.Fatalf("restarted peer: hits %d misses %d, want a fresh re-sync (0/1)", h, m)
	}
	if h, _ := peerCache(peer2); h != h2c+1 {
		t.Fatalf("surviving peer stopped hitting after the restart: hits %d→%d", h2c, h)
	}
}

// TestClusterE2EMultiplexed is the multiplexed-config leg of the CI
// cluster job: a coordinator started with -partition 4 over two peer
// worker processes, so each peer carries two partitions on one v3
// connection. It requires bit-identity with the flat engine, a per-peer
// telemetry report whose exchange counts prove both channels of each
// connection ran (2 partitions × 2 exchanges × iterations per peer), and
// populated cluster wire metrics on every process.
func TestClusterE2EMultiplexed(t *testing.T) {
	if os.Getenv("COVERD_CLUSTER_E2E") != "1" {
		t.Skip("set COVERD_CLUSTER_E2E=1 to run the multi-process cluster E2E")
	}
	bin := filepath.Join(t.TempDir(), "coverd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build coverd: %v", err)
	}

	peer1 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0")
	peer2 := startCoverd(t, bin, "-addr", "127.0.0.1:0", "-peer-listen", "127.0.0.1:0")
	coord := startCoverd(t, bin, "-addr", "127.0.0.1:0",
		"-peers", peer1.peerAddr+","+peer2.peerAddr, "-partition", "4")

	c := client.New("http://" + coord.httpAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	weights := make([]int64, 500)
	state := uint64(0xFACADE)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for i := range weights {
		weights[i] = int64(1 + next(300))
	}
	edges := make([][]int, 1500)
	for e := range edges {
		edges[e] = []int{next(500), next(500), next(500)}
	}
	inst, err := distcover.NewInstance(weights, edges)
	if err != nil {
		t.Fatal(err)
	}

	flat, err := c.Solve(ctx, inst, api.SolveOptions{Engine: api.EngineFlat, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// No Partitions in the request: the server's -partition 4 default
	// applies, four partitions round-robin onto the two peers.
	traced, err := c.Solve(ctx, inst, api.SolveOptions{Engine: api.EngineCluster, NoCache: true, Trace: true})
	if err != nil {
		t.Fatalf("multiplexed cluster solve: %v", err)
	}
	if !reflect.DeepEqual(traced.Cover, flat.Cover) || traced.Weight != flat.Weight ||
		traced.DualLowerBound != flat.DualLowerBound || traced.Iterations != flat.Iterations {
		t.Fatal("multiplexed cluster solve diverges from flat")
	}

	rep := traced.Report
	if rep == nil {
		t.Fatal("trace=true returned no report")
	}
	if len(rep.Peers) != 2 {
		t.Fatalf("report has %d peer rows, want 2 (one per multiplexed connection)", len(rep.Peers))
	}
	for _, p := range rep.Peers {
		// Both channels of this peer's shared connection must have run the
		// full cadence: 2 partitions × 2 exchanges per iteration.
		if want := 2 * 2 * traced.Iterations; p.Exchanges != want {
			t.Fatalf("peer %s: %d exchanges, want %d (2 partitions × 2 exchanges × %d iterations)",
				p.Peer, p.Exchanges, want, traced.Iterations)
		}
		if p.FramesSent == 0 || p.FramesReceived == 0 || p.BytesSent == 0 || p.BytesReceived == 0 {
			t.Fatalf("peer %s row lacks wire accounting: %+v", p.Peer, p)
		}
	}

	// Wire metrics on every process: well-formed exposition, exchange
	// series per peer address on the coordinator, coordinator-facing series
	// plus the cluster-peer phase series on the workers.
	coordText := scrapeMetrics(t, coord.httpAddr)
	checkExposition(t, "coordinator", coordText)
	for _, peerAddr := range []string{peer1.peerAddr, peer2.peerAddr} {
		if !strings.Contains(coordText, fmt.Sprintf("peer=%q", peerAddr)) {
			t.Fatalf("coordinator /metrics lacks exchange series for peer %s", peerAddr)
		}
	}
	for _, proc := range []struct {
		name string
		p    *coverdProc
	}{{"peer1", peer1}, {"peer2", peer2}} {
		text := scrapeMetrics(t, proc.p.httpAddr)
		checkExposition(t, proc.name, text)
		if !strings.Contains(text, "coverd_cluster_exchange_seconds_bucket{peer=") {
			t.Fatalf("%s /metrics has no cluster exchange series", proc.name)
		}
		if !strings.Contains(text, `coverd_cluster_frames_total{direction="sent"}`) {
			t.Fatalf("%s /metrics has no cluster frame counters", proc.name)
		}
		if !strings.Contains(text, `engine="cluster-peer"`) {
			t.Fatalf("%s /metrics lacks cluster-peer phase series", proc.name)
		}
	}
}

// metricInt reads an unlabeled integer counter from a Prometheus scrape.
func metricInt(t *testing.T, text, name string) int {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// requiredMetricFamilies is the documented metric surface; every name must
// appear with HELP and TYPE on every coverd process.
var requiredMetricFamilies = []string{
	"coverd_solves_total",
	"coverd_cache_hits_total",
	"coverd_cache_misses_total",
	"coverd_backpressure_total",
	"coverd_jobs_submitted_total",
	"coverd_batch_requests_total",
	"coverd_sessions_created_total",
	"coverd_session_updates_total",
	"coverd_peer_instance_cache_hits_total",
	"coverd_peer_instance_cache_misses_total",
	"coverd_sessions_recovered_total",
	"coverd_wal_records_total",
	"coverd_wal_snapshots_total",
	"coverd_ring_forwards_total",
	"coverd_ring_redirects_total",
	"coverd_ring_hops_total",
	"coverd_ring_takeovers_total",
	"coverd_ring_member_down_total",
	"coverd_ring_members",
	"coverd_solve_seconds",
	"coverd_solve_phase_seconds",
	"coverd_cluster_exchange_seconds",
	"coverd_cluster_boundary_bytes_total",
	"coverd_cluster_frames_total",
	"coverd_job_queue_wait_seconds",
	"coverd_request_stage_seconds",
	"coverd_queue_depth",
	"coverd_queue_capacity",
	"coverd_workers",
	"coverd_cache_entries",
	"coverd_sessions",
	"coverd_session_bytes",
	"coverd_session_bytes_budget",
}

func scrapeMetrics(t *testing.T, httpAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", httpAddr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d, err %v", httpAddr, resp.StatusCode, err)
	}
	return string(body)
}

// checkExposition asserts the scrape parses as Prometheus text exposition
// (every line a HELP/TYPE comment or `name{labels} value`) and that every
// documented family is present.
func checkExposition(t *testing.T, name, text string) {
	t.Helper()
	help := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("%s: blank line in exposition", name)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			help[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("%s: malformed TYPE line %q", name, line)
			}
			typed[f[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("%s: unexpected comment %q", name, line)
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: sample line %q is not `name value`", name, line)
		}
		metric := f[0]
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			if !strings.HasSuffix(metric, "}") {
				t.Fatalf("%s: unbalanced label braces in %q", name, line)
			}
			metric = metric[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(metric,
			"_bucket"), "_sum"), "_count")
		if !typed[metric] && !typed[base] {
			t.Fatalf("%s: sample %q has no TYPE header", name, line)
		}
	}
	for _, fam := range requiredMetricFamilies {
		if !help[fam] || !typed[fam] {
			t.Fatalf("%s: family %s missing HELP/TYPE (help=%t type=%t)", name, fam, help[fam], typed[fam])
		}
	}
}

func requireSameSession(t *testing.T, label string, got, want *api.SessionInfo) {
	t.Helper()
	if got.InstanceHash != want.InstanceHash {
		t.Fatalf("%s: hashes diverge", label)
	}
	if !reflect.DeepEqual(got.Result.Cover, want.Result.Cover) ||
		got.Result.Weight != want.Result.Weight ||
		got.Result.DualLowerBound != want.Result.DualLowerBound {
		t.Fatalf("%s: cluster session diverges from flat:\n%+v\nvs\n%+v", label, got.Result, want.Result)
	}
}

// coverdProc is one spawned daemon with its discovered listen addresses
// and its captured structured log.
type coverdProc struct {
	httpAddr string
	peerAddr string
	cmd      *exec.Cmd

	mu  sync.Mutex
	log []string
}

// kill SIGKILLs the daemon — no shutdown hooks run, exactly like a crash.
func (p *coverdProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// logContains reports whether any captured stderr line contains s.
func (p *coverdProc) logContains(s string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.log {
		if strings.Contains(line, s) {
			return true
		}
	}
	return false
}

// logAttr extracts a slog TextHandler `key=value` attribute from a line
// ("" when absent). Values with spaces are quoted by the handler, but the
// addresses and trace ids this test reads never contain them.
func logAttr(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// startCoverd spawns the binary and scans its stderr slog output for the
// ephemeral HTTP and peer addresses (both listeners bind :0; the log is
// the only place the chosen ports appear). The full stderr keeps being
// captured for trace-id correlation checks.
func startCoverd(t *testing.T, bin string, args ...string) *coverdProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	p := &coverdProc{cmd: cmd}
	ready := make(chan struct{})
	wantPeer := false
	for i, a := range args {
		if a == "-peer-listen" && i+1 < len(args) {
			wantPeer = true
		}
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			if strings.Contains(line, "coverd: listening on") && p.httpAddr == "" {
				p.httpAddr = logAttr(line, "addr")
			}
			if strings.Contains(line, "coverd: peer protocol on") && p.peerAddr == "" {
				p.peerAddr = logAttr(line, "addr")
			}
			done := p.httpAddr != "" && (!wantPeer || p.peerAddr != "")
			p.mu.Unlock()
			if done && !signaled {
				signaled = true
				close(ready)
				// Keep draining so the daemon's log writes never block.
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("coverd %v did not announce its listeners in time", args)
	}
	return p
}
