package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"distcover"
	"distcover/client"
	"distcover/internal/hypergraph"
	"distcover/internal/ring"
	"distcover/server"
	"distcover/server/api"
)

// workload is one traffic mix. WORKLOADS.md gives the reason for each and
// the per-layer predictions; the why strings here are the one-line form
// BENCHMARK.json repeats.
type workload struct {
	name  string
	setup func(cfg config) (*fixture, error)
}

var workloads = []workload{
	{name: "solve-fresh", setup: setupSolveFresh},
	{name: "repeat-ring", setup: setupRepeatRing},
	{name: "session-stream", setup: setupSessionStream},
}

// Every workload runs one closed-loop client, so each timed operation has
// the server to itself: two clients on a 2-CPU machine made an operation's
// latency depend on whether the other client's request overlapped it, a
// bimodal mix whose median jumped from run to run.

// subSeed derives the seed of one generated input from the run seed, so
// every input is a pure function of --seed.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// pooled is one generated instance with its reference solution.
type pooled struct {
	inst *distcover.Instance
	hash string
	ref  *distcover.Solution
}

// genInstance generates a regular-like instance. The server only ever sees
// it as the JSON the client encodes.
func genInstance(sc scale, seed int64) (*distcover.Instance, error) {
	g, err := hypergraph.RegularLike(sc.n, sc.d, sc.f, hypergraph.GenConfig{
		Seed: seed, MaxWeight: sc.maxWeight, Dist: hypergraph.WeightUniformRange,
	})
	if err != nil {
		return nil, err
	}
	edges := make([][]int, g.NumEdges())
	for e := range edges {
		for _, v := range g.Edge(hypergraph.EdgeID(e)) {
			edges[e] = append(edges[e], int(v))
		}
	}
	return distcover.NewInstance(g.Weights(), edges)
}

// genPool generates count instances and solves each locally with opts for
// the reference answer.
func genPool(cfg config, tag string, count int, opts ...distcover.Option) ([]*pooled, error) {
	pool := make([]*pooled, count)
	err := parallel(count, func(i int) error {
		inst, err := genInstance(cfg.sc, subSeed(cfg.seed, tag, i))
		if err != nil {
			return err
		}
		ref, err := distcover.Solve(inst, opts...)
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		pool[i] = &pooled{inst: inst, hash: inst.Hash(), ref: ref}
		return nil
	})
	return pool, err
}

// parallel runs fn(0..n-1) on at most GOMAXPROCS goroutines and joins
// their errors.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkSolve is the correctness gate for solve responses: cover, weight,
// iteration count and instance hash must equal the reference exactly.
func checkSolve(p *pooled, res *api.SolveResult) error {
	if res.Weight != p.ref.Weight || res.Iterations != p.ref.Iterations ||
		res.InstanceHash != p.hash || !slices.Equal(res.Cover, p.ref.Cover) {
		return fmt.Errorf("%w: instance %.12s: got weight %d, %d iterations, %d cover vertices, hash %.12s; want %d, %d, %d, %.12s",
			errWrongAnswer, p.hash, res.Weight, res.Iterations, len(res.Cover), res.InstanceHash,
			p.ref.Weight, p.ref.Iterations, len(p.ref.Cover), p.hash)
	}
	return nil
}

// startStandalone starts one coverd with cfg and registers its shutdown.
func startStandalone(fx *fixture, cfg server.Config) (*node, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, cfg)
	if err != nil {
		return nil, err
	}
	fx.nodes = append(fx.nodes, n)
	fx.cleanup = append(fx.cleanup, n.close)
	return n, nil
}

// warmSolve sends one untimed solve during set-up and checks its answer.
func warmSolve(cl *client.Client, p *pooled, opts api.SolveOptions) error {
	res, err := cl.Solve(context.Background(), p.inst, opts)
	if err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	return checkSolve(p, res)
}

// setupFailed closes a partly built fixture and passes err on.
func setupFailed(fx *fixture, err error) (*fixture, error) {
	fx.close()
	return nil, err
}

// solveWorker sends POST /v1/solve round-robin over its pool.
type solveWorker struct {
	cl    *client.Client
	pool  []*pooled
	next  int
	opts  api.SolveOptions
	extra func(rp *replayer, p *pooled, inst *distcover.Instance) error // replays the solve itself
}

func (w *solveWorker) step(ctx context.Context) (opRecord, error) {
	p := w.pool[w.next%len(w.pool)]
	w.next++
	t0 := time.Now()
	res, err := w.cl.Solve(ctx, p.inst, w.opts)
	rec := opRecord{t0: t0, lat: time.Since(t0)}
	if err != nil {
		return rec, err
	}
	if err := checkSolve(p, res); err != nil {
		return rec, err
	}
	rec.solved = !res.Cached
	rec.iterations, rec.rounds = res.Iterations, res.Rounds
	if sp := spanFrom(ctx); sp != nil && sp.keep {
		rec.replay = solveReplay(p, sp.reqBody, sp.respBody, w.extra)
	}
	return rec, nil
}

// solveReplay re-times the stages coverd runs on a solve request — wire
// decode, instance build, content hash, the solve (extra, given the
// operation's pooled instance p), response encode — and the client's
// response decode, through the same public calls, on the operation's own
// request and response bytes.
func solveReplay(p *pooled, reqBody, respBody []byte, extra func(*replayer, *pooled, *distcover.Instance) error) func(*replayer) error {
	return func(rp *replayer) error {
		var req api.SolveRequest
		if err := rp.span("api.decode", func() error {
			return json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req)
		}); err != nil {
			return err
		}
		var inst *distcover.Instance
		if err := rp.span("hypergraph.build", func() (err error) {
			inst, err = distcover.ReadInstance(bytes.NewReader(req.Instance))
			return err
		}); err != nil {
			return err
		}
		rp.span("hypergraph.hash", func() error { inst.Hash(); return nil })
		if extra != nil {
			if err := extra(rp, p, inst); err != nil {
				return err
			}
		}
		return decodeEncodeReplay(rp, respBody, &api.SolveResult{})
	}
}

// decodeEncodeReplay times the client's decode of a response body into out
// and the server's encode of the same value.
func decodeEncodeReplay(rp *replayer, respBody []byte, out any) error {
	if err := rp.span("client.decode", func() error {
		return json.NewDecoder(bytes.NewReader(respBody)).Decode(out)
	}); err != nil {
		return err
	}
	return rp.span("api.encode", func() error { return json.NewEncoder(io.Discard).Encode(out) })
}

func setupSolveFresh(cfg config) (*fixture, error) {
	pool, err := genPool(cfg, "solve-fresh", 8)
	if err != nil {
		return nil, err
	}
	fx := &fixture{attr: attribution{decodes: 1, builds: 1}}
	n, err := startStandalone(fx, server.Config{})
	if err != nil {
		return setupFailed(fx, err)
	}
	extra := func(rp *replayer, p *pooled, inst *distcover.Instance) error {
		return rp.span("core.solve", func() error { _, err := distcover.Solve(inst); return err })
	}
	if cfg.trace {
		// The cluster layer has no timed workload of its own: the traced run
		// replays each kept solve through distcover.ClusterSolve on two
		// in-process peers as well, with their instance caches warm.
		peers, err := startPeers(fx, 2)
		if err != nil {
			return setupFailed(fx, err)
		}
		if err := parallel(len(pool), func(i int) error { return clusterSolve(pool[i], pool[i].inst, peers) }); err != nil {
			return setupFailed(fx, fmt.Errorf("cluster warm-up: %w", err))
		}
		solveOnly := extra
		extra = func(rp *replayer, p *pooled, inst *distcover.Instance) error {
			if err := solveOnly(rp, p, inst); err != nil {
				return err
			}
			fx.clusterSolves++
			return rp.span("cluster.solve", func() error { return clusterSolve(p, inst, peers) })
		}
	}
	tp := newTransport(cfg)
	fx.tps = append(fx.tps, tp)
	fx.workers = append(fx.workers, &solveWorker{
		cl: newClient(n.url, tp), pool: pool, opts: api.SolveOptions{NoCache: true}, extra: extra,
	})
	return fx, nil
}

// startPeers starts count coverds serving the cluster peer protocol, adds
// them to fx's scraped nodes, and returns their peer addresses.
func startPeers(fx *fixture, count int) ([]string, error) {
	var addrs []string
	for i := 0; i < count; i++ {
		p, err := startPeerNode()
		if err != nil {
			return nil, err
		}
		fx.cleanup = append(fx.cleanup, p.close)
		fx.peers = append(fx.peers, len(fx.nodes))
		fx.nodes = append(fx.nodes, p)
		addrs = append(addrs, p.peerAddr)
	}
	return addrs, nil
}

// clusterSolve solves inst over peers with 2 partitions and checks the
// answer against p's reference: the partition runner must reproduce the
// flat solve exactly.
func clusterSolve(p *pooled, inst *distcover.Instance, peers []string) error {
	sol, err := distcover.ClusterSolve(inst, peers, distcover.WithClusterPartitions(2))
	if err != nil {
		return err
	}
	if sol.Weight != p.ref.Weight || sol.Iterations != p.ref.Iterations || !slices.Equal(sol.Cover, p.ref.Cover) {
		return fmt.Errorf("%w: cluster solve of instance %.12s: got weight %d, %d iterations; want %d, %d",
			errWrongAnswer, p.hash, sol.Weight, sol.Iterations, p.ref.Weight, p.ref.Iterations)
	}
	return nil
}

// ringWorker is a plain (not ring-aware) client that alternates ring
// members: each pool instance goes to its owner on every other pass, so
// about half the solves are forwarded one hop.
type ringWorker struct {
	cls     []*client.Client // one per member, in members order
	members []string
	rg      *ring.Ring // rebuilt locally to tell direct from misrouted
	pool    []*pooled
	i       int
}

func (w *ringWorker) step(ctx context.Context) (opRecord, error) {
	p := w.pool[w.i%len(w.pool)]
	m := (w.i / len(w.pool)) % len(w.members)
	w.i++
	t0 := time.Now()
	res, err := w.cls[m].Solve(ctx, p.inst, api.SolveOptions{})
	rec := opRecord{t0: t0, lat: time.Since(t0), misrouted: w.rg.Owner(p.hash) != w.members[m]}
	if err != nil {
		return rec, err
	}
	if err := checkSolve(p, res); err != nil {
		return rec, err
	}
	rec.solved = !res.Cached
	if rec.solved {
		rec.iterations, rec.rounds = res.Iterations, res.Rounds
	}
	if sp := spanFrom(ctx); sp != nil && sp.keep {
		rec.replay = solveReplay(p, sp.reqBody, sp.respBody, nil)
	}
	return rec, nil
}

func setupRepeatRing(cfg config) (*fixture, error) {
	pool, err := genPool(cfg, "repeat-ring", 4)
	if err != nil {
		return nil, err
	}
	fx := &fixture{attr: attribution{decodes: 1, perForward: 1, builds: 2}, ringed: true}
	// Both listeners must exist before either server starts: every member
	// is configured with the full membership.
	var lns []net.Listener
	var members []string
	for i := 0; i < 2; i++ {
		ln, err := listenLoopback()
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		members = append(members, ln.Addr().String())
	}
	for i, ln := range lns {
		n, err := startNode(ln, server.Config{RingSelf: members[i], RingMembers: members})
		if err != nil {
			for _, rest := range lns[i+1:] {
				rest.Close()
			}
			return setupFailed(fx, err)
		}
		fx.nodes = append(fx.nodes, n)
		fx.cleanup = append(fx.cleanup, n.close)
	}
	rg, err := ring.New(members, 0)
	if err != nil {
		return setupFailed(fx, err)
	}
	tp := newTransport(cfg)
	fx.tps = append(fx.tps, tp)
	w := &ringWorker{members: members, rg: rg, pool: pool}
	for _, n := range fx.nodes {
		w.cls = append(w.cls, newClient(n.url, tp))
	}
	fx.workers = append(fx.workers, w)
	// Warm the owners' result caches: every timed solve is then a hit.
	if err := parallel(len(pool), func(i int) error {
		return warmSolve(w.cls[0], pool[i], api.SolveOptions{})
	}); err != nil {
		return setupFailed(fx, err)
	}
	return fx, nil
}

// sessionWorker owns one session: it streams the fixed delta sequence and,
// after the last delta, deletes the session and opens a fresh one on the
// same base instance, so every generation does the same work.
type sessionWorker struct {
	cl     *client.Client
	base   *pooled
	baseN  int // vertices of the base instance
	deltas []api.SessionDelta
	id     string
	k      int  // deltas applied to the current session
	broken bool // an update failed: the session state is unknown

	ended []genEnd // the last acknowledged state of every generation

	mirror *distcover.Session // replay-pass replica, after mirK deltas
	mirK   int
	store  *replayStore
}

// genEnd is a session state to verify: the SessionInfo the server returned
// after its k-th update.
type genEnd struct {
	k    int
	info *api.SessionInfo
}

func (w *sessionWorker) recycle(ctx context.Context) error {
	if id := w.id; id != "" {
		w.id = "" // an unclosed session is left behind, not retried
		if err := w.cl.CloseSession(ctx, id); err != nil {
			return err
		}
	}
	info, err := w.cl.CreateSession(ctx, w.base.inst, api.SolveOptions{})
	if err != nil {
		return err
	}
	if err := checkSolve(w.base, info.Result); err != nil {
		return err
	}
	w.id, w.k, w.broken = info.ID, 0, false
	return nil
}

func (w *sessionWorker) step(ctx context.Context) (opRecord, error) {
	if w.id == "" || w.broken || w.k == len(w.deltas) {
		if err := w.recycle(ctx); err != nil {
			return opRecord{}, err
		}
	}
	d := w.deltas[w.k]
	t0 := time.Now()
	res, err := w.cl.UpdateSession(ctx, w.id, d)
	rec := opRecord{t0: t0, lat: time.Since(t0)}
	if err != nil {
		w.broken = true
		return rec, err
	}
	w.k++
	s := res.Session
	if s == nil || s.Result == nil || s.Updates != w.k || res.NewEdges != len(d.Edges) ||
		s.Vertices != w.baseN+w.k*len(d.Weights) {
		w.broken = true
		return rec, fmt.Errorf("%w: session update %d: response does not describe the session after it", errWrongAnswer, w.k)
	}
	if len(w.ended) > 0 && w.ended[len(w.ended)-1].info.ID == s.ID {
		w.ended[len(w.ended)-1] = genEnd{k: w.k, info: s}
	} else {
		w.ended = append(w.ended, genEnd{k: w.k, info: s})
	}
	rec.solved = res.Iterations > 0
	rec.iterations, rec.rounds, rec.residual = res.Iterations, res.Rounds, res.ResidualEdges
	if sp := spanFrom(ctx); sp != nil && sp.keep {
		k, reqBody, respBody, id := w.k-1, sp.reqBody, sp.respBody, w.id
		rec.replay = func(rp *replayer) error { return w.replay(rp, k, id, reqBody, respBody) }
	}
	return rec, nil
}

// replay re-times one session update's server-side stages on a local
// replica brought to the same state: wire decode, Session.Update, the
// full-instance Session.Hash the response carries, the WAL append into a
// scratch log, and the response encode/decode.
func (w *sessionWorker) replay(rp *replayer, k int, id string, reqBody, respBody []byte) error {
	if w.mirror == nil || w.mirK > k {
		s, err := distcover.NewSession(w.base.inst)
		if err != nil {
			return err
		}
		w.mirror, w.mirK = s, 0
	}
	for ; w.mirK < k; w.mirK++ {
		d := w.deltas[w.mirK]
		if _, err := w.mirror.Update(distcover.Delta{Weights: d.Weights, Edges: d.Edges}); err != nil {
			return err
		}
	}
	if err := w.store.open(); err != nil {
		return err
	}
	var d api.SessionDelta
	if err := rp.span("api.decode", func() error {
		return json.NewDecoder(bytes.NewReader(reqBody)).Decode(&d)
	}); err != nil {
		return err
	}
	delta := distcover.Delta{Weights: d.Weights, Edges: d.Edges}
	if err := rp.span("core.update", func() error { _, err := w.mirror.Update(delta); return err }); err != nil {
		return err
	}
	w.mirK++
	rp.span("hypergraph.hash", func() error { w.mirror.Hash(); return nil })
	if err := rp.span("durable.append", func() error { return w.store.append(id, delta) }); err != nil {
		return err
	}
	return decodeEncodeReplay(rp, respBody, &api.SessionUpdateResult{})
}

// verify checks every recorded session state against a client-side replay:
// the base instance extended by the same deltas must hash to the reported
// instance hash, the reported cover must cover it at the reported weight,
// the certificate must stay within CertifiedBound, and every generation
// that reached the same update count must report the same cover.
func (w *sessionWorker) verify() (wrong int, first string) {
	fail := func(format string, args ...any) {
		wrong++
		if first == "" {
			first = fmt.Sprintf("%v: session: ", errWrongAnswer) + fmt.Sprintf(format, args...)
		}
	}
	prefix := map[int]*distcover.Instance{}
	byK := map[int][]int{}
	for _, e := range w.ended {
		inst, ok := prefix[e.k]
		if !ok {
			inst = w.base.inst
			for _, d := range w.deltas[:e.k] {
				var err error
				if inst, err = inst.Extend(distcover.Delta{Weights: d.Weights, Edges: d.Edges}); err != nil {
					fail("replaying delta: %v", err)
					return
				}
			}
			prefix[e.k] = inst
		}
		r := e.info.Result
		switch {
		case e.info.InstanceHash != inst.Hash():
			fail("after %d updates the instance hash is %.12s, replay gives %.12s", e.k, e.info.InstanceHash, inst.Hash())
		case !inst.IsCover(r.Cover):
			fail("after %d updates the reported cover misses an edge", e.k)
		case inst.CoverWeight(r.Cover) != r.Weight:
			fail("after %d updates the reported weight %d is not the cover's weight %d", e.k, r.Weight, inst.CoverWeight(r.Cover))
		case r.RatioBound > e.info.CertifiedBound*(1+1e-9):
			fail("after %d updates ratio bound %g exceeds the certified %g", e.k, r.RatioBound, e.info.CertifiedBound)
		case byK[e.k] != nil && !slices.Equal(byK[e.k], r.Cover):
			fail("two generations disagree on the cover after %d updates", e.k)
		}
		byK[e.k] = r.Cover
	}
	return wrong, first
}

// genDeltas builds the fixed delta sequence of one session: each delta adds
// deltaVerts weighted vertices and deltaEdges rank-f edges, freshEdges of
// them over the new vertices only (so every update has residual work), the
// rest over any vertex.
func genDeltas(sc scale, n0 int, seed int64) []api.SessionDelta {
	rng := rand.New(rand.NewSource(seed))
	out := make([]api.SessionDelta, sc.sessionUpdates)
	n := n0
	pick := func(lo, hi int) []int {
		e := make([]int, 0, sc.f)
		for len(e) < sc.f {
			v := lo + rng.Intn(hi-lo)
			if !slices.Contains(e, v) {
				e = append(e, v)
			}
		}
		return e
	}
	for k := range out {
		d := api.SessionDelta{}
		for i := 0; i < sc.deltaVerts; i++ {
			d.Weights = append(d.Weights, 1+rng.Int63n(sc.maxWeight))
		}
		for i := 0; i < sc.deltaEdges; i++ {
			if i < sc.freshEdges {
				d.Edges = append(d.Edges, pick(n, n+sc.deltaVerts))
			} else {
				d.Edges = append(d.Edges, pick(0, n+sc.deltaVerts))
			}
		}
		n += sc.deltaVerts
		out[k] = d
	}
	return out
}

func setupSessionStream(cfg config) (*fixture, error) {
	pool, err := genPool(cfg, "session-stream", 1)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(cfg.out, "perfbench-wal-")
	if err != nil {
		return nil, err
	}
	fx := &fixture{attr: attribution{decodes: 1, sessionHashes: 1, appends: 1}}
	fx.cleanup = append(fx.cleanup, func() { os.RemoveAll(walDir) })
	// Snapshots are compacted hourly: none lands inside a run, so every
	// run measures the same per-update work.
	n, err := startStandalone(fx, server.Config{WALDir: walDir, SnapshotInterval: time.Hour})
	if err != nil {
		return setupFailed(fx, err)
	}
	store := &replayStore{dir: filepath.Join(cfg.out, "perfbench-replay-wal")}
	fx.cleanup = append(fx.cleanup, store.close)
	tp := newTransport(cfg)
	fx.tps = append(fx.tps, tp)
	w := &sessionWorker{
		cl: newClient(n.url, tp), base: pool[0], baseN: cfg.sc.n, store: store,
		deltas: genDeltas(cfg.sc, cfg.sc.n, subSeed(cfg.seed, "session-deltas", 0)),
	}
	if err := w.recycle(context.Background()); err != nil {
		return setupFailed(fx, fmt.Errorf("create session: %w", err))
	}
	fx.workers = append(fx.workers, w)
	fx.verify = func() (int, string) {
		defer func() { w.ended = nil }()
		return w.verify()
	}
	return fx, nil
}
