package main

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// worker is one closed-loop client: step performs one timed operation and
// checks its answer, returning errWrongAnswer (wrapped) when the gate
// rejects it.
type worker interface {
	step(ctx context.Context) (opRecord, error)
}

// opRecord is what one completed operation reports to the loop.
type opRecord struct {
	t0  time.Time     // request send
	lat time.Duration // request send to decoded response

	solved     bool // the solver ran (not served from the cache)
	iterations int
	rounds     int
	residual   int  // session updates: residual edges re-solved
	misrouted  bool // ring: sent to a member that does not own the key

	req                 int64 // traced runs: the request id its spans share
	reqBytes, respBytes int64 // traced runs: HTTP body bytes of the call

	// replay re-times the server-side stages of this operation on its
	// request bytes; set only for operations the traced run keeps.
	replay func(rp *replayer) error
}

// fixture is a workload's running system.
type fixture struct {
	nodes   []*node // every in-process coverd, in scrape order
	peers   []int   // indexes into nodes of the cluster peers
	workers []worker
	tps     []*transport
	attr    attribution
	// verify runs correctness checks that need the whole loop (session
	// replays); it returns the number of wrong answers it found.
	verify func() (wrong int, first string)
	// ringed marks the workload whose per-op records carry misrouted.
	ringed bool
	// clusterSolves counts the replayed distcover.ClusterSolve calls the
	// peers' counters are divided by.
	clusterSolves int
	cleanup       []func()
}

// attribution says how many times one operation passes each replayed
// server-side stage; http.other_ms is what the attributed stages leave of
// the traced latency.
type attribution struct {
	decodes       float64 // api decodes of the request body
	perForward    float64 // extra decodes per server-side forward
	builds        float64 // ReadInstance + Instance.Hash pairs
	sessionHashes float64 // Session.Hash calls
	appends       float64 // WAL appends
}

func (fx *fixture) close() {
	for i := len(fx.cleanup) - 1; i >= 0; i-- {
		fx.cleanup[i]()
	}
	for _, tp := range fx.tps {
		tp.closeIdle()
	}
}

// finish runs the fixture's whole-loop checks and folds them into lr.
func (fx *fixture) finish(lr *loopResult) {
	if fx.verify == nil {
		return
	}
	wrong, first := fx.verify()
	lr.wrong += wrong
	lr.failed += wrong
	if lr.firstWrong == "" {
		lr.firstWrong = first
	}
}

type loopResult struct {
	records    []opRecord
	lats       []float64 // ms, successful operations in completion order
	attempted  int
	failed     int
	wrong      int
	firstWrong string
	wall       time.Duration
	cpu        time.Duration
	peakRSS    uint64
	rssMB      []float64
	binRate    []float64 // completions per second, per one-second bin
	binCPU     []float64 // CPU ms per completed op, per one-second bin
}

func (lr *loopResult) completed() int { return len(lr.lats) }

func (lr *loopResult) result() result {
	return result{
		Correct:   lr.wrong == 0 && lr.completed() > 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics:   map[string]metric{},
	}
}

// runLoop drives every worker in a closed loop for d: each sends its next
// request only after the previous one is answered and checked. With tr set
// every operation is traced and the first replayOps are kept for replay.
func runLoop(cfg config, fx *fixture, d time.Duration, tr *tracer) loopResult {
	runtime.GC()
	debug.FreeOSMemory() // set-up garbage must not count as the workload's memory

	var (
		lr        loopResult
		mu        sync.Mutex
		completed atomic.Int64
		kept      atomic.Int64
		reqSeq    atomic.Int64
		wg        sync.WaitGroup
	)
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	start := time.Now()
	cpu0 := cpuTime()
	go func() {
		defer close(samplerDone)
		s := rssSamples()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		binStart, binDone, binCPU := start, int64(0), cpu0
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				rss := residentBytes(s)
				mu.Lock()
				lr.peakRSS = max(lr.peakRSS, rss)
				lr.rssMB = append(lr.rssMB, float64(rss)/(1<<20))
				if now.Sub(binStart) >= time.Second {
					done, cpu := completed.Load(), cpuTime()
					lr.binRate = append(lr.binRate, float64(done-binDone)/now.Sub(binStart).Seconds())
					if done > binDone {
						lr.binCPU = append(lr.binCPU, float64((cpu-binCPU).Microseconds())/1000/float64(done-binDone))
					}
					binStart, binDone, binCPU = now, done, cpu
				}
				mu.Unlock()
			}
		}
	}()

	deadline := start.Add(d)
	for _, w := range fx.workers {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ctx := context.Background()
				var sp *opSpan
				if tr != nil {
					sp = &opSpan{req: reqSeq.Add(1), id: tr.newID()}
					sp.keep = kept.Add(1) <= int64(cfg.sc.replayOps)
					ctx = context.WithValue(ctx, spanKey{}, sp)
				}
				rec, err := w.step(ctx)
				if sp != nil && !rec.t0.IsZero() {
					tr.add(sp.id, 0, sp.req, "client.call", rec.t0, rec.t0.Add(rec.lat))
					rec.req, rec.reqBytes, rec.respBytes = sp.req, sp.reqBytes, sp.respBytes
				}
				mu.Lock()
				lr.attempted++
				switch {
				case err == nil:
					completed.Add(1)
					lr.lats = append(lr.lats, float64(rec.lat.Nanoseconds())/1e6)
					lr.records = append(lr.records, rec)
				case errors.Is(err, errWrongAnswer):
					lr.failed++
					lr.wrong++
					if lr.firstWrong == "" {
						lr.firstWrong = err.Error()
					}
				default:
					lr.failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	lr.wall = time.Since(start)
	lr.cpu = cpuTime() - cpu0
	close(stop)
	<-samplerDone
	return lr
}
