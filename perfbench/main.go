// Command perfbench is distcover's serving benchmark. It hosts coverd
// in-process on loopback, drives it through the client package in a closed
// loop, checks every answer against a reference computed during set-up, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) of one workload. WORKLOADS.md records why each workload exists
// and which metrics each layer should move.
//
//	perfbench --workload solve-fresh --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// run's provenance (machine, seed, sample counts and quartiles). A wrong
// answer makes the command exit 1 after printing the result; a set-up or
// harness failure exits 2 without printing one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// scale fixes the instance class and the shape of every workload. fullScale
// is what the benchmark measures; the smoke test runs the same code at
// tinyScale.
type scale struct {
	n, d, f        int   // RegularLike: vertices, vertex degree, edge rank
	maxWeight      int64 // vertex weights uniform in 1..maxWeight
	deltaVerts     int   // new vertices per session delta
	deltaEdges     int   // edges per session delta
	freshEdges     int   // delta edges over new vertices only, so every update has residual work
	sessionUpdates int   // updates before a session is deleted and recreated
	setupReps      int   // set-ups per untraced run; setup_s is their median
	replayOps      int   // traced operations whose server stages are replayed
}

// fullScale is the E13 regular-100k class: n=40,000, d=6, f=4 (60,000 edges,
// a ~1.6 MB request).
var fullScale = scale{
	n: 40000, d: 6, f: 4, maxWeight: 100,
	deltaVerts: 20, deltaEdges: 100, freshEdges: 10,
	sessionUpdates: 100, setupReps: 5, replayOps: 12,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // scratch directory (WAL, span files)
	sc       scale
	// tamper, when set, may rewrite any response body the benchmark's
	// clients receive (path is the request's URL path). Only the smoke test
	// sets it, to prove that the correctness gate rejects a wrong answer.
	tamper func(path string, body []byte) []byte
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary describes the samples behind one metric: their count and, when
// the metric is built from a distribution, its quartiles. Latency also
// carries its 90th percentile here rather than as a metric: on 15 ms
// session updates it moved by 29% of its median between runs of the same
// code minutes apart, with the host, too much to gate a change on.
type summary struct {
	N      int       `json:"n"`
	Q      []float64 `json:"quartiles,omitempty"`
	P90    float64   `json:"p90,omitempty"`
	Source string    `json:"source,omitempty"`
}

type provenance struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Clients    int                `json:"clients"`
	Instance   map[string]int64   `json:"instance"`
	SpansFile  string             `json:"spans_file,omitempty"`
	Samples    map[string]summary `json:"samples"`
	WrongFirst string             `json:"first_wrong_answer,omitempty"`
}

// report is what one workload run produces.
type report struct {
	res  result
	prov provenance
}

// errWrongAnswer marks a response that failed the correctness gate.
var errWrongAnswer = errors.New("wrong answer")

func main() {
	var cfg config
	var seconds int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's instances are generated from")
	fs.IntVar(&seconds, "seconds", 35, "seconds the closed loop measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files (WAL, span files)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = float64(seconds)
	cfg.trace = *trace == 1
	cfg.sc = fullScale

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, err := run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if err := printReport(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ok = ok && rep.res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printReport writes the provenance line followed by the result line.
func printReport(w io.Writer, rep *report) error {
	prov, err := json.Marshal(map[string]provenance{"provenance": rep.prov})
	if err != nil {
		return err
	}
	res, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", prov, res)
	return err
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// run executes one workload: set-up (repeated for setup_s when untraced),
// the closed loop, the correctness checks, and metric assembly.
func run(cfg config) (*report, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{prov: provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Instance: map[string]int64{"n": int64(cfg.sc.n), "d": int64(cfg.sc.d), "f": int64(cfg.sc.f), "max_weight": cfg.sc.maxWeight},
		Samples:  map[string]summary{},
	}}
	if cfg.trace {
		return rep, runTraced(cfg, wl, rep)
	}
	return rep, runUntraced(cfg, wl, rep)
}

// setupTimed builds the workload's fixture reps times, closing all but the
// last, and returns it with the set-up durations in seconds.
func setupTimed(cfg config, wl *workload, reps int) (*fixture, []float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		fx, err := wl.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return fx, times, nil
		}
		fx.close()
	}
	return nil, nil, fmt.Errorf("%s: no set-up repetitions", wl.name)
}

func runUntraced(cfg config, wl *workload, rep *report) error {
	fx, setups, err := setupTimed(cfg, wl, cfg.sc.setupReps)
	if err != nil {
		return err
	}
	defer fx.close()
	rep.prov.Clients = len(fx.workers)
	lr := runLoop(cfg, fx, secondsDur(cfg.seconds), nil)
	fx.finish(&lr)
	rep.res = lr.result()
	rep.prov.WrongFirst = lr.firstWrong
	add := func(name, unit string, v float64, s summary) {
		rep.res.Metrics[name] = metric{Value: v, Unit: unit}
		rep.prov.Samples[name] = s
	}
	lat := sortedCopy(lr.lats)
	latSum := summary{N: len(lat), Q: quartiles(lat), P90: percentile(lat, 0.90)}
	add("latency_p50_ms", "ms", percentile(lat, 0.50), latSum)
	add("throughput_rps", "1/s", float64(lr.completed())/lr.wall.Seconds(),
		summary{N: len(lr.binRate), Q: quartiles(sortedCopy(lr.binRate)), Source: "per-second completions"})
	add("success_rate", "ratio", float64(lr.attempted-lr.failed)/float64(max(lr.attempted, 1)),
		summary{N: lr.attempted, Source: "correct completions / attempted"})
	add("cpu_ms_per_op", "ms", lr.cpu.Seconds()*1000/float64(max(lr.completed(), 1)),
		summary{N: len(lr.binCPU), Q: quartiles(sortedCopy(lr.binCPU)), Source: "getrusage user+sys; per-second ms/op"})
	add("peak_rss_mb", "MB", float64(lr.peakRSS)/(1<<20),
		summary{N: len(lr.rssMB), Q: quartiles(sortedCopy(lr.rssMB)), Source: "runtime-accounted resident bytes, sampled every 10ms"})
	add("setup_s", "s", median(setups), summary{N: len(setups), Q: quartiles(sortedCopy(setups))})
	return nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
