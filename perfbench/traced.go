package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"distcover"
	"distcover/internal/durable"
)

// replayer records the replayed stages of one operation as children of
// that operation's replay span.
type replayer struct {
	tr     *tracer
	parent int
	req    int64
}

func (rp *replayer) span(name string, fn func() error) error {
	return rp.tr.timed(rp.parent, rp.req, name, fn)
}

// replayStore is the scratch write-ahead log session replays append to.
type replayStore struct {
	dir string
	st  *durable.Store
}

func (s *replayStore) open() error {
	if s.st != nil {
		return nil
	}
	os.RemoveAll(s.dir)
	st, _, err := durable.Open(s.dir)
	if err != nil {
		return err
	}
	s.st = st
	return nil
}

func (s *replayStore) append(id string, d distcover.Delta) error {
	_, err := s.st.Append(durable.Record{Type: durable.RecUpdate, ID: id, Delta: d})
	return err
}

func (s *replayStore) close() {
	if s.st != nil {
		s.st.Close()
		s.st = nil
	}
	os.RemoveAll(s.dir)
}

// perLayer names every per-layer metric with its unit, in output order.
var perLayer = []struct{ name, unit string }{
	{"client.marshal_ms", "ms"}, {"client.decode_ms", "ms"},
	{"client.request_bytes", "B/op"}, {"client.response_bytes", "B/op"},
	{"api.decode_ms", "ms"}, {"api.encode_ms", "ms"},
	{"hypergraph.build_ms", "ms"}, {"hypergraph.hash_ms", "ms"},
	{"server.queue_wait_ms", "ms"}, {"server.cache_hit_ratio", "ratio"},
	{"server.backpressure", "count"}, {"server.solve_ms", "ms"},
	{"core.solve_ms", "ms"}, {"core.update_ms", "ms"},
	{"core.vertex_ms", "ms"}, {"core.edge_ms", "ms"}, {"core.gather_ms", "ms"},
	{"core.iterations", "count"}, {"core.rounds", "count"}, {"core.residual_edges", "count"},
	{"ring.forward_ratio", "ratio"}, {"ring.hops", "1/op"},
	{"ring.misrouted_p50_ms", "ms"}, {"ring.direct_p50_ms", "ms"},
	{"durable.append_ms", "ms"}, {"durable.records", "count"}, {"durable.snapshots", "count"},
	{"cluster.solve_ms", "ms"}, {"cluster.exchange_ms", "ms"}, {"cluster.exchanges", "1/op"},
	{"cluster.boundary_bytes", "B/op"}, {"cluster.frames", "1/op"},
	{"cluster.instance_cache_hit_ratio", "ratio"},
	{"http.other_ms", "ms"}, {"trace.overhead_frac", "ratio"},
}

// runTraced splits the run in two halves of the closed loop: the first
// untraced, the second traced. Afterwards the kept operations' server-side
// stages are replayed. The /metrics of every coverd are scraped before the
// traced half and after the replays (which reach no server, only the
// cluster peers), and the per-layer metrics are assembled from span self
// times and the scrape differences.
func runTraced(cfg config, wl *workload, rep *report) error {
	fx, _, err := setupTimed(cfg, wl, 1)
	if err != nil {
		return err
	}
	defer fx.close()
	rep.prov.Clients = len(fx.workers)
	half := secondsDur(cfg.seconds / 2)

	plain := runLoop(cfg, fx, half, nil)
	tr := newTracer()
	for _, tp := range fx.tps {
		tp.tr = tr
	}
	d := &scrapeDiff{}
	if d.before, err = scrapeAll(fx.nodes); err != nil {
		return err
	}
	traced := runLoop(cfg, fx, half, tr)
	for _, tp := range fx.tps {
		tp.tr = nil
	}
	for _, rec := range traced.records {
		if rec.replay == nil {
			continue
		}
		root := tr.newID()
		start := time.Now()
		if err := rec.replay(&replayer{tr: tr, parent: root, req: rec.req}); err != nil {
			if !errors.Is(err, errWrongAnswer) {
				return fmt.Errorf("replay: %w", err)
			}
			traced.wrong++
			traced.failed++
			if traced.firstWrong == "" {
				traced.firstWrong = err.Error()
			}
		}
		tr.add(root, 0, rec.req, "replay", start, time.Now())
	}
	if d.after, err = scrapeAll(fx.nodes); err != nil {
		return err
	}
	fx.finish(&plain)
	fx.finish(&traced)

	m, err := layerMetrics(fx, tr, d, &plain, &traced)
	if err != nil {
		return err
	}
	rep.res = traced.result()
	rep.res.Correct = rep.res.Correct && plain.wrong == 0
	rep.res.Attempted += plain.attempted
	rep.res.Failed += plain.failed
	rep.prov.WrongFirst = plain.firstWrong
	if rep.prov.WrongFirst == "" {
		rep.prov.WrongFirst = traced.firstWrong
	}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s not computed", l.name)
		}
		rep.res.Metrics[l.name] = metric{Value: v.value, Unit: l.unit}
		rep.prov.Samples[l.name] = v.sum
	}
	dir := filepath.Join(cfg.out, "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep.prov.SpansFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	return tr.write(rep.prov.SpansFile)
}

type layerValue struct {
	value float64
	sum   summary
}

// layerMetrics computes every per-layer metric. Stages a workload does not
// pass read 0.
func layerMetrics(fx *fixture, tr *tracer, d *scrapeDiff, plain, traced *loopResult) (map[string]layerValue, error) {
	m := map[string]layerValue{}
	ops := float64(traced.completed())
	if ops == 0 {
		return nil, fmt.Errorf("traced loop completed no operation")
	}
	medianOf := func(name string, xs []float64, source string) float64 {
		xs = sortedCopy(xs)
		v := percentile(xs, 0.5)
		m[name] = layerValue{v, summary{N: len(xs), Q: quartiles(xs), Source: source}}
		return v
	}
	self := func(name, span string) float64 {
		return medianOf(name, tr.selfMS(span), "median self time of "+span+" spans")
	}
	scraped := func(name string, v, n float64, what string) float64 {
		m[name] = layerValue{v, summary{N: int(math.Round(n)), Source: "/metrics difference: " + what}}
		return v
	}
	perOp := func(name string, get func(opRecord) (float64, bool)) float64 {
		var xs []float64
		for _, r := range traced.records {
			if v, ok := get(r); ok {
				xs = append(xs, v)
			}
		}
		xs = sortedCopy(xs)
		m[name] = layerValue{mean(xs), summary{N: len(xs), Q: quartiles(xs), Source: "mean over traced operations"}}
		return mean(xs)
	}

	marshal := self("client.marshal_ms", "client.call")
	cdec := self("client.decode_ms", "client.decode")
	perOp("client.request_bytes", func(r opRecord) (float64, bool) { return float64(r.reqBytes), true })
	perOp("client.response_bytes", func(r opRecord) (float64, bool) { return float64(r.respBytes), true })
	adec := self("api.decode_ms", "api.decode")
	aenc := self("api.encode_ms", "api.encode")
	build := self("hypergraph.build_ms", "hypergraph.build")
	hash := self("hypergraph.hash_ms", "hypergraph.hash")

	var all []int
	for i := range fx.nodes {
		all = append(all, i)
	}
	qn := d.delta("coverd_job_queue_wait_seconds_count", all)
	qs := d.delta("coverd_job_queue_wait_seconds_sum", all)
	scraped("server.queue_wait_ms", 1000*ratio(qs, qn), qn, "coverd_job_queue_wait_seconds sum/count")
	hits, misses := d.delta("coverd_cache_hits_total", all), d.delta("coverd_cache_misses_total", all)
	scraped("server.cache_hit_ratio", ratio(hits, hits+misses), hits+misses, "coverd_cache_{hits,misses}_total")
	bp := d.delta("coverd_backpressure_total", all)
	scraped("server.backpressure", bp, bp, "coverd_backpressure_total")
	sn := d.delta("coverd_solve_seconds_count", all)
	ss := d.delta("coverd_solve_seconds_sum", all)
	scraped("server.solve_ms", 1000*ratio(ss, sn), sn, "coverd_solve_seconds sum/count")

	self("core.solve_ms", "core.solve")
	self("core.update_ms", "core.update")
	phaseN := d.delta("coverd_solve_phase_seconds_count", all)
	for _, ph := range []string{"vertex", "edge", "gather"} {
		s := d.delta("coverd_solve_phase_seconds_sum", all, fmt.Sprintf("phase=%q", ph))
		scraped("core."+ph+"_ms", 1000*s/ops, phaseN, "coverd_solve_phase_seconds{phase="+ph+"} sum per operation")
	}
	solvedOnly := func(get func(opRecord) int) func(opRecord) (float64, bool) {
		return func(r opRecord) (float64, bool) { return float64(get(r)), r.solved }
	}
	perOp("core.iterations", solvedOnly(func(r opRecord) int { return r.iterations }))
	perOp("core.rounds", solvedOnly(func(r opRecord) int { return r.rounds }))
	perOp("core.residual_edges", func(r opRecord) (float64, bool) { return float64(r.residual), true })

	fwd := d.delta("coverd_ring_forwards_total", all)
	hops := d.delta("coverd_ring_hops_total", all)
	scraped("ring.forward_ratio", fwd/ops, fwd, "coverd_ring_forwards_total per operation")
	scraped("ring.hops", hops/ops, hops, "coverd_ring_hops_total per operation")
	var direct, misrouted []float64
	if fx.ringed {
		for i, r := range traced.records {
			if r.misrouted {
				misrouted = append(misrouted, traced.lats[i])
			} else {
				direct = append(direct, traced.lats[i])
			}
		}
		if float64(len(misrouted)) != fwd {
			return nil, fmt.Errorf("ring: the locally rebuilt ring predicts %d forwarded solves, the members forwarded %g", len(misrouted), fwd)
		}
	}
	medianOf("ring.misrouted_p50_ms", misrouted, "traced latency of solves sent to a non-owner (local ring.New)")
	medianOf("ring.direct_p50_ms", direct, "traced latency of solves sent to their owner (local ring.New)")

	appendMS := self("durable.append_ms", "durable.append")
	recs := d.delta("coverd_wal_records_total", all)
	scraped("durable.records", recs, recs, "coverd_wal_records_total")
	snaps := d.delta("coverd_wal_snapshots_total", all)
	scraped("durable.snapshots", snaps, snaps, "coverd_wal_snapshots_total")

	// The cluster layer is read from the peers' side of the replayed
	// ClusterSolve calls: exchanges, boundary bytes and frames per solve.
	self("cluster.solve_ms", "cluster.solve")
	cs := float64(fx.clusterSolves)
	xn := d.delta("coverd_cluster_exchange_seconds_count", fx.peers)
	xs := d.delta("coverd_cluster_exchange_seconds_sum", fx.peers)
	scraped("cluster.exchange_ms", 1000*ratio(xs, xn), xn, "peer coverd_cluster_exchange_seconds sum/count")
	scraped("cluster.exchanges", ratio(xn, cs), xn, "peer coverd_cluster_exchange_seconds count per cluster solve")
	bb := d.delta("coverd_cluster_boundary_bytes_total", fx.peers)
	scraped("cluster.boundary_bytes", ratio(bb, cs), bb, "peer coverd_cluster_boundary_bytes_total per cluster solve")
	fr := d.delta("coverd_cluster_frames_total", fx.peers)
	scraped("cluster.frames", ratio(fr, cs), fr, "peer coverd_cluster_frames_total per cluster solve")
	ph, pm := d.delta("coverd_peer_instance_cache_hits_total", fx.peers), d.delta("coverd_peer_instance_cache_misses_total", fx.peers)
	scraped("cluster.instance_cache_hit_ratio", ratio(ph, ph+pm), ph+pm, "peer coverd_peer_instance_cache_{hits,misses}_total")
	if d.err != nil {
		return nil, d.err
	}

	tracedP50 := percentile(sortedCopy(traced.lats), 0.5)
	plainP50 := percentile(sortedCopy(plain.lats), 0.5)
	a := fx.attr
	attributed := marshal + cdec + aenc +
		adec*(a.decodes+a.perForward*fwd/ops) +
		(build+hash)*a.builds + hash*a.sessionHashes + appendMS*a.appends +
		1000*(qs+ss)/ops
	m["http.other_ms"] = layerValue{tracedP50 - attributed, summary{N: traced.completed(), Source: "traced latency p50 minus the attributed stages"}}
	m["trace.overhead_frac"] = layerValue{ratio(tracedP50-plainP50, plainP50),
		summary{N: plain.completed() + traced.completed(), Source: "traced vs untraced latency p50 of the same run"}}
	return m, nil
}
