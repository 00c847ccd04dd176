package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"distcover/internal/telemetry"
)

// latencyBuckets are the upper bounds (seconds) of the solve latency
// histogram, spanning sub-millisecond simulator runs to multi-second
// congest-over-TCP runs.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// phaseBuckets are the upper bounds (seconds) of the per-phase and
// cluster-exchange histograms. Phases are much shorter than whole solves
// (a vertex phase of a small instance is microseconds), so the scale
// starts three decades lower.
var phaseBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// histogram is a fixed-bucket latency histogram (non-cumulative counts;
// cumulation happens at exposition time). Callers hold Metrics.mu.
type histogram struct {
	buckets []float64
	counts  []int64
	sum     float64
	count   int64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]int64, len(buckets))}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.count++
	for i, le := range h.buckets {
		if v <= le {
			h.counts[i]++
			break
		}
	}
}

// writeHistogram renders one labeled histogram series in exposition
// order (bucket lines cumulative, then sum and count). labels is the
// rendered label block including braces minus the le pair, e.g.
// `engine="flat",phase="vertex"`, or "" for an unlabeled series.
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cumulative := int64(0)
	for i, le := range h.buckets {
		cumulative += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cumulative)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.sum, name, labels, h.count)
	}
}

// requestStage is one admission or response stage of a request, a label
// value of coverd_request_stage_seconds.
type requestStage int

const (
	stageDecode requestStage = iota // request body → wire types
	stageBuild                      // instance bytes → CSR graph
	stageHash                       // canonical content hash
	stageEncode                     // response value → bytes written
	numStages
)

var stageNames = [numStages]string{"decode", "build", "hash", "encode"}

// Metrics aggregates the service counters exported at GET /metrics in
// Prometheus text exposition format. All methods are safe for concurrent
// use; gauges (queue depth, cache size) are sampled at scrape time by the
// server, not stored here.
type Metrics struct {
	mu              sync.Mutex
	solvesOK        int64
	solvesErr       int64
	cacheHits       int64
	cacheMisses     int64
	backpressured   int64 // submits rejected with 429
	jobsSubmitted   int64
	batchRequests   int64
	sessionsCreated int64
	sessionUpdates  int64
	peerCacheHits   int64 // peer instance-cache outcomes (peer processes)
	peerCacheMisses int64
	sessionsRecov   int64 // sessions rehydrated from the WAL
	walRecords      int64
	walSnapshots    int64
	ringForwards    int64   // requests proxied to their ring owner
	ringRedirects   int64   // 307s pointing clients at the owner
	ringHops        int64   // hop-marked arrivals (forwarded/redirected here once)
	ringTakeovers   int64   // sessions adopted from a dead member's WAL
	ringDowns       int64   // times a ring member was marked unreachable
	bucketCounts    []int64 // parallel to latencyBuckets, non-cumulative
	latencySum      float64 // seconds
	latencyCount    int64

	// Telemetry-fed series (see SolveTracer/ClusterTracer): per-phase
	// solver timings keyed by engine|phase, per-peer cluster exchange
	// waits, cluster wire volume by direction, and queue wait.
	phaseHist    map[string]*histogram // key: engine + "|" + phase
	exchangeHist map[string]*histogram // key: peer address
	clusterBytes map[string]int64      // key: direction (sent/received)
	clusterFrame map[string]int64      // key: direction
	queueWait    *histogram
	// solveStages times POST /v1/solve's stages, indexed by requestStage:
	// a fixed array, so an observation allocates nothing.
	solveStages [numStages]*histogram
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		bucketCounts: make([]int64, len(latencyBuckets)),
		phaseHist:    make(map[string]*histogram),
		exchangeHist: make(map[string]*histogram),
		clusterBytes: map[string]int64{"sent": 0, "received": 0},
		clusterFrame: map[string]int64{"sent": 0, "received": 0},
		queueWait:    newHistogram(latencyBuckets),
	}
	for i := range m.solveStages {
		m.solveStages[i] = newHistogram(phaseBuckets)
	}
	return m
}

// recordStage observes one stage of a solve request. A nil receiver
// records nothing, so untimed callers pass a nil *Metrics.
func (m *Metrics) recordStage(st requestStage, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.solveStages[st].observe(d.Seconds())
	m.mu.Unlock()
}

func (m *Metrics) recordPhase(engine, phase string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := engine + "|" + phase
	h := m.phaseHist[key]
	if h == nil {
		h = newHistogram(phaseBuckets)
		m.phaseHist[key] = h
	}
	h.observe(seconds)
}

func (m *Metrics) recordExchange(peer string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.exchangeHist[peer]
	if h == nil {
		h = newHistogram(phaseBuckets)
		m.exchangeHist[peer] = h
	}
	h.observe(seconds)
}

func (m *Metrics) recordClusterFrame(dir string, bytes int) {
	m.mu.Lock()
	m.clusterBytes[dir] += int64(bytes)
	m.clusterFrame[dir]++
	m.mu.Unlock()
}

func (m *Metrics) recordQueueWait(d time.Duration) {
	m.mu.Lock()
	m.queueWait.observe(d.Seconds())
	m.mu.Unlock()
}

// tracerAdapter implements telemetry.Tracer by feeding the hooks into
// the metrics registry. Peer "" is the cluster coordinator as seen from
// a peer process; it is normalized so peer processes and coordinators
// export the same label shape.
type tracerAdapter struct {
	m      *Metrics
	engine string
}

func normalizePeer(peer string) string {
	if peer == "" {
		return "coordinator"
	}
	return peer
}

func (t tracerAdapter) Phase(_ int, phase string, d, _ time.Duration) {
	t.m.recordPhase(t.engine, phase, d.Seconds())
}

func (t tracerAdapter) Exchange(peer, _ string, _ int, wait time.Duration) {
	t.m.recordExchange(normalizePeer(peer), wait.Seconds())
}

func (t tracerAdapter) Frame(_, dir, _ string, bytes int) {
	t.m.recordClusterFrame(dir, bytes)
}

func (t tracerAdapter) Protocol(int, int64) {} // report-only; no metric

// InstanceCache implements telemetry.CacheTracer: on peer processes the
// cluster protocol reports whether each setup's instance hash hit the
// content-addressed cache.
func (t tracerAdapter) InstanceCache(hit bool, _ int) {
	t.m.recordPeerCache(hit)
}

// SolveTracer returns a telemetry sink that aggregates one solve's phase
// timings into coverd_solve_phase_seconds{engine=...} (and, for cluster
// solves, the exchange and wire-volume series). The worker pool attaches
// one per solve via distcover.WithTracer.
func (m *Metrics) SolveTracer(engine string) telemetry.Tracer {
	return tracerAdapter{m: m, engine: engine}
}

// ClusterTracer returns the telemetry sink a coverd peer process plugs
// into cluster.Peer.Tracer: partition-solve phase timings appear under
// engine="cluster-peer" and exchange waits under peer="coordinator".
func (m *Metrics) ClusterTracer() telemetry.Tracer {
	return tracerAdapter{m: m, engine: "cluster-peer"}
}

func (m *Metrics) recordSolve(seconds float64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.solvesErr++
		return
	}
	m.solvesOK++
	m.latencySum += seconds
	m.latencyCount++
	for i, le := range latencyBuckets {
		if seconds <= le {
			m.bucketCounts[i]++
			break
		}
	}
}

func (m *Metrics) recordCache(hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
}

func (m *Metrics) recordBackpressure() {
	m.mu.Lock()
	m.backpressured++
	m.mu.Unlock()
}

func (m *Metrics) recordSubmit() {
	m.mu.Lock()
	m.jobsSubmitted++
	m.mu.Unlock()
}

func (m *Metrics) recordBatch() {
	m.mu.Lock()
	m.batchRequests++
	m.mu.Unlock()
}

func (m *Metrics) recordSessionCreate() {
	m.mu.Lock()
	m.sessionsCreated++
	m.mu.Unlock()
}

func (m *Metrics) recordSessionUpdate() {
	m.mu.Lock()
	m.sessionUpdates++
	m.mu.Unlock()
}

func (m *Metrics) recordPeerCache(hit bool) {
	m.mu.Lock()
	if hit {
		m.peerCacheHits++
	} else {
		m.peerCacheMisses++
	}
	m.mu.Unlock()
}

func (m *Metrics) recordSessionRecovered() {
	m.mu.Lock()
	m.sessionsRecov++
	m.mu.Unlock()
}

func (m *Metrics) recordWALRecord() {
	m.mu.Lock()
	m.walRecords++
	m.mu.Unlock()
}

func (m *Metrics) recordWALSnapshot() {
	m.mu.Lock()
	m.walSnapshots++
	m.mu.Unlock()
}

func (m *Metrics) recordRingForward() {
	m.mu.Lock()
	m.ringForwards++
	m.mu.Unlock()
}

func (m *Metrics) recordRingRedirect() {
	m.mu.Lock()
	m.ringRedirects++
	m.mu.Unlock()
}

func (m *Metrics) recordRingHop() {
	m.mu.Lock()
	m.ringHops++
	m.mu.Unlock()
}

func (m *Metrics) recordRingTakeover() {
	m.mu.Lock()
	m.ringTakeovers++
	m.mu.Unlock()
}

func (m *Metrics) recordRingDown() {
	m.mu.Lock()
	m.ringDowns++
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the counters, used by tests and by
// operators who prefer JSON over the Prometheus endpoint.
type Snapshot struct {
	SolvesOK        int64   `json:"solves_ok"`
	SolvesErr       int64   `json:"solves_err"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	Backpressured   int64   `json:"backpressured"`
	JobsSubmitted   int64   `json:"jobs_submitted"`
	BatchRequests   int64   `json:"batch_requests"`
	SessionsCreated int64   `json:"sessions_created"`
	SessionUpdates  int64   `json:"session_updates"`
	PeerCacheHits   int64   `json:"peer_cache_hits"`
	PeerCacheMisses int64   `json:"peer_cache_misses"`
	SessionsRecov   int64   `json:"sessions_recovered"`
	WALRecords      int64   `json:"wal_records"`
	WALSnapshots    int64   `json:"wal_snapshots"`
	RingForwards    int64   `json:"ring_forwards"`
	RingRedirects   int64   `json:"ring_redirects"`
	RingHops        int64   `json:"ring_hops"`
	RingTakeovers   int64   `json:"ring_takeovers"`
	RingDowns       int64   `json:"ring_member_down"`
	LatencySum      float64 `json:"latency_sum_seconds"`
	LatencyCount    int64   `json:"latency_count"`

	buckets []int64 // non-cumulative histogram counts, parallel to latencyBuckets
}

// Snapshot returns a consistent copy of all counters.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		buckets:         append([]int64(nil), m.bucketCounts...),
		SolvesOK:        m.solvesOK,
		SolvesErr:       m.solvesErr,
		CacheHits:       m.cacheHits,
		CacheMisses:     m.cacheMisses,
		Backpressured:   m.backpressured,
		JobsSubmitted:   m.jobsSubmitted,
		BatchRequests:   m.batchRequests,
		SessionsCreated: m.sessionsCreated,
		SessionUpdates:  m.sessionUpdates,
		PeerCacheHits:   m.peerCacheHits,
		PeerCacheMisses: m.peerCacheMisses,
		SessionsRecov:   m.sessionsRecov,
		WALRecords:      m.walRecords,
		WALSnapshots:    m.walSnapshots,
		RingForwards:    m.ringForwards,
		RingRedirects:   m.ringRedirects,
		RingHops:        m.ringHops,
		RingTakeovers:   m.ringTakeovers,
		RingDowns:       m.ringDowns,
		LatencySum:      m.latencySum,
		LatencyCount:    m.latencyCount,
	}
}

// copyHist returns a render-safe copy of h; callers hold Metrics.mu.
func copyHist(h *histogram) *histogram {
	return &histogram{
		buckets: h.buckets,
		counts:  append([]int64(nil), h.counts...),
		sum:     h.sum,
		count:   h.count,
	}
}

// writeTelemetry renders the telemetry-fed families. HELP/TYPE headers
// are emitted even when a family has no series yet, so scrapers (and the
// CI exposition check) always see every documented metric name.
func (m *Metrics) writeTelemetry(w io.Writer) {
	m.mu.Lock()
	phases := make(map[string]*histogram, len(m.phaseHist))
	for k, h := range m.phaseHist {
		phases[k] = copyHist(h)
	}
	exchanges := make(map[string]*histogram, len(m.exchangeHist))
	for k, h := range m.exchangeHist {
		exchanges[k] = copyHist(h)
	}
	bytesByDir := map[string]int64{"sent": m.clusterBytes["sent"], "received": m.clusterBytes["received"]}
	framesByDir := map[string]int64{"sent": m.clusterFrame["sent"], "received": m.clusterFrame["received"]}
	queueWait := copyHist(m.queueWait)
	var stages [numStages]*histogram
	for i, h := range m.solveStages {
		stages[i] = copyHist(h)
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP coverd_solve_phase_seconds Solver wall time per algorithm phase (init/vertex/edge/gather/protocol), labeled by engine.\n# TYPE coverd_solve_phase_seconds histogram\n")
	for _, key := range sortedKeys(phases) {
		engine, phase, _ := cutKey(key)
		labels := fmt.Sprintf("engine=%q,phase=%q", engine, phase)
		writeHistogram(w, "coverd_solve_phase_seconds", labels, phases[key])
	}

	fmt.Fprintf(w, "# HELP coverd_cluster_exchange_seconds Coordinator wait per cluster boundary/coverage exchange, labeled by peer address (peer=\"coordinator\" on peer processes).\n# TYPE coverd_cluster_exchange_seconds histogram\n")
	for _, peer := range sortedKeys(exchanges) {
		writeHistogram(w, "coverd_cluster_exchange_seconds", fmt.Sprintf("peer=%q", peer), exchanges[peer])
	}

	fmt.Fprintf(w, "# HELP coverd_cluster_boundary_bytes_total Cluster protocol wire bytes (frame headers included) by direction.\n# TYPE coverd_cluster_boundary_bytes_total counter\n")
	for _, dir := range []string{"received", "sent"} {
		fmt.Fprintf(w, "coverd_cluster_boundary_bytes_total{direction=%q} %d\n", dir, bytesByDir[dir])
	}

	fmt.Fprintf(w, "# HELP coverd_cluster_frames_total Cluster protocol frames by direction.\n# TYPE coverd_cluster_frames_total counter\n")
	for _, dir := range []string{"received", "sent"} {
		fmt.Fprintf(w, "coverd_cluster_frames_total{direction=%q} %d\n", dir, framesByDir[dir])
	}

	fmt.Fprintf(w, "# HELP coverd_job_queue_wait_seconds Time jobs spent queued before a worker picked them up.\n# TYPE coverd_job_queue_wait_seconds histogram\n")
	writeHistogram(w, "coverd_job_queue_wait_seconds", "", queueWait)

	fmt.Fprintf(w, "# HELP coverd_request_stage_seconds Wall time per request stage (decode/build/hash/encode), labeled by route.\n# TYPE coverd_request_stage_seconds histogram\n")
	for i, h := range stages {
		writeHistogram(w, "coverd_request_stage_seconds", fmt.Sprintf("route=\"solve\",stage=%q", stageNames[i]), h)
	}
}

func sortedKeys(m map[string]*histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cutKey splits an engine|phase histogram key.
func cutKey(key string) (engine, phase string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i], key[i+1:], true
		}
	}
	return key, "", false
}

type gauge struct {
	name, help string
	value      float64
}

// writePrometheus renders all counters plus the supplied gauges in the
// Prometheus text exposition format (version 0.0.4).
func (m *Metrics) writePrometheus(w io.Writer, gauges []gauge) {
	s := m.Snapshot()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP coverd_solves_total Completed solve attempts by outcome.\n# TYPE coverd_solves_total counter\n")
	fmt.Fprintf(w, "coverd_solves_total{outcome=\"ok\"} %d\n", s.SolvesOK)
	fmt.Fprintf(w, "coverd_solves_total{outcome=\"error\"} %d\n", s.SolvesErr)
	counter("coverd_cache_hits_total", "Solve requests served from the instance-result cache.", s.CacheHits)
	counter("coverd_cache_misses_total", "Solve requests that missed the instance-result cache.", s.CacheMisses)
	counter("coverd_backpressure_total", "Submits rejected with 429 because the job queue was full.", s.Backpressured)
	counter("coverd_jobs_submitted_total", "Jobs accepted into the queue.", s.JobsSubmitted)
	counter("coverd_batch_requests_total", "Batch solve requests received.", s.BatchRequests)
	counter("coverd_sessions_created_total", "Incremental sessions opened.", s.SessionsCreated)
	counter("coverd_session_updates_total", "Session delta batches applied.", s.SessionUpdates)
	counter("coverd_peer_instance_cache_hits_total", "Cluster setups whose instance hash was already in this peer's content-addressed cache.", s.PeerCacheHits)
	counter("coverd_peer_instance_cache_misses_total", "Cluster setups that had to re-sync the full instance to this peer.", s.PeerCacheMisses)
	counter("coverd_sessions_recovered_total", "Sessions rehydrated from the write-ahead log at startup.", s.SessionsRecov)
	counter("coverd_wal_records_total", "Records appended to the session write-ahead log.", s.WALRecords)
	counter("coverd_wal_snapshots_total", "WAL compaction snapshots written.", s.WALSnapshots)
	counter("coverd_ring_forwards_total", "Misrouted requests proxied to their ring owner.", s.RingForwards)
	counter("coverd_ring_redirects_total", "Misrouted bodyless requests redirected (307) to their ring owner.", s.RingRedirects)
	counter("coverd_ring_hops_total", "Hop-marked arrivals: requests another ring member forwarded or redirected here.", s.RingHops)
	counter("coverd_ring_takeovers_total", "Sessions adopted from a dead ring member's WAL directory.", s.RingTakeovers)
	counter("coverd_ring_member_down_total", "Times a ring member was marked unreachable.", s.RingDowns)

	fmt.Fprintf(w, "# HELP coverd_solve_seconds Solver wall time of successful solves.\n# TYPE coverd_solve_seconds histogram\n")
	cumulative := int64(0)
	for i, le := range latencyBuckets {
		cumulative += s.buckets[i]
		fmt.Fprintf(w, "coverd_solve_seconds_bucket{le=\"%g\"} %d\n", le, cumulative)
	}
	fmt.Fprintf(w, "coverd_solve_seconds_bucket{le=\"+Inf\"} %d\n", s.LatencyCount)
	fmt.Fprintf(w, "coverd_solve_seconds_sum %g\n", s.LatencySum)
	fmt.Fprintf(w, "coverd_solve_seconds_count %d\n", s.LatencyCount)

	m.writeTelemetry(w)

	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", g.name, g.help, g.name, g.name, g.value)
	}
}
