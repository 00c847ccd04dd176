package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyScale runs every workload's full code path in about a second.
var tinyScale = scale{
	n: 400, d: 6, f: 4, maxWeight: 100,
	deltaVerts: 8, deltaEdges: 12, freshEdges: 2,
	sessionUpdates: 5, setupReps: 2, replayOps: 3,
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json untraced and
// traced at tiny scale and checks that the printed result line carries
// exactly the metrics BENCHMARK.json names for that mode, each with its
// unit, and that every answer passed the correctness gate.
func TestEveryMetricPrinted(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			cfg := config{workload: wl.Name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), sc: tinyScale}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			var out bytes.Buffer
			if err := printReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", wl.Name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%s)",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, rep.prov.WrongFirst)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			// The cluster layer is measured only by solve-fresh's traced
			// replays, over peers whose instance caches set-up warmed.
			if trace && wl.Name == "solve-fresh" {
				if x, hit := res.Metrics["cluster.exchanges"].Value, res.Metrics["cluster.instance_cache_hit_ratio"].Value; x <= 0 || hit != 1 {
					t.Errorf("solve-fresh traced: cluster.exchanges = %v, cluster.instance_cache_hit_ratio = %v; want > 0 and 1", x, hit)
				}
			}
		}
	}
}

// dropCoverVertex removes the first vertex from every cover in a JSON
// response body: top-level (solve), under result (session create) and
// under session.result (session update).
func dropCoverVertex(body []byte) []byte {
	var v map[string]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if dec.Decode(&v) != nil {
		return body
	}
	drop := func(m map[string]any) {
		if c, ok := m["cover"].([]any); ok && len(c) > 0 {
			m["cover"] = c[1:]
		}
	}
	drop(v)
	if r, ok := v["result"].(map[string]any); ok {
		drop(r)
	}
	if s, ok := v["session"].(map[string]any); ok {
		if r, ok := s["result"].(map[string]any); ok {
			drop(r)
		}
	}
	out, err := json.Marshal(v)
	if err != nil {
		return body
	}
	return out
}

// TestGateRejectsTamperedCover removes one vertex from the cover of every
// response the timed loop receives and checks that each workload's gate
// fails the run. Set-up traffic (warm-up solves, session creation) passes
// untouched so that the loop's own checks are the ones exercised.
func TestGateRejectsTamperedCover(t *testing.T) {
	sc := tinyScale
	sc.setupReps = 1
	// Solve responses sent during set-up: the warm-up solve of every pool
	// instance on repeat-ring.
	warmups := map[string]int64{"repeat-ring": 4}
	for _, wl := range workloads {
		var seen atomic.Int64
		skip := warmups[wl.name]
		cfg := config{workload: wl.name, seed: 3, seconds: 1, out: t.TempDir(), sc: sc,
			tamper: func(path string, body []byte) []byte {
				switch {
				case path == "/v1/solve" && seen.Add(1) > skip,
					strings.HasSuffix(path, "/update"):
					return dropCoverVertex(body)
				}
				return body
			}}
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if rep.res.Correct || rep.res.Failed == 0 {
			t.Errorf("%s: tampered covers passed the gate: correct=%v failed=%d", wl.name, rep.res.Correct, rep.res.Failed)
		}
		if !strings.Contains(rep.prov.WrongFirst, errWrongAnswer.Error()) {
			t.Errorf("%s: first wrong answer %q does not come from the gate", wl.name, rep.prov.WrongFirst)
		}
	}
}

// TestScrapeMissingFamily checks that reading a family the exposition does
// not declare fails instead of reading 0, and that histogram series resolve
// to their family.
func TestScrapeMissingFamily(t *testing.T) {
	x, err := parseExposition(strings.NewReader(`# TYPE coverd_solve_seconds histogram
coverd_solve_seconds_bucket{le="+Inf"} 3
coverd_solve_seconds_sum 1.5
coverd_solve_seconds_count 3
# TYPE coverd_solve_phase_seconds histogram
coverd_solve_phase_seconds_sum{engine="sim",phase="edge"} 0.25
coverd_solve_phase_seconds_sum{engine="flat",phase="edge"} 0.5
coverd_solve_phase_seconds_sum{engine="sim",phase="vertex"} 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := x.total("coverd_solve_seconds_sum"); err != nil || v != 1.5 {
		t.Errorf("coverd_solve_seconds_sum = %v, %v; want 1.5", v, err)
	}
	if v, err := x.total("coverd_solve_phase_seconds_sum", `phase="edge"`); err != nil || v != 0.75 {
		t.Errorf("edge phase sum = %v, %v; want 0.75", v, err)
	}
	if _, err := x.total("coverd_cache_hits_total"); err == nil {
		t.Error("a family missing from the exposition read without error")
	}
}
