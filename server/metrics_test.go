package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distcover/client"
	"distcover/server"
	"distcover/server/api"
)

// documentedMetricFamilies is the full documented metric surface of GET
// /metrics (see README). The exposition test fails if any family is
// renamed, dropped, or served without HELP/TYPE headers — the contract
// dashboards scrape against.
var documentedMetricFamilies = map[string]string{
	"coverd_solves_total":                     "counter",
	"coverd_cache_hits_total":                 "counter",
	"coverd_cache_misses_total":               "counter",
	"coverd_backpressure_total":               "counter",
	"coverd_jobs_submitted_total":             "counter",
	"coverd_batch_requests_total":             "counter",
	"coverd_sessions_created_total":           "counter",
	"coverd_session_updates_total":            "counter",
	"coverd_peer_instance_cache_hits_total":   "counter",
	"coverd_peer_instance_cache_misses_total": "counter",
	"coverd_sessions_recovered_total":         "counter",
	"coverd_wal_records_total":                "counter",
	"coverd_wal_snapshots_total":              "counter",
	"coverd_ring_forwards_total":              "counter",
	"coverd_ring_redirects_total":             "counter",
	"coverd_ring_hops_total":                  "counter",
	"coverd_ring_takeovers_total":             "counter",
	"coverd_ring_member_down_total":           "counter",
	"coverd_ring_members":                     "gauge",
	"coverd_solve_seconds":                    "histogram",
	"coverd_solve_phase_seconds":              "histogram",
	"coverd_cluster_exchange_seconds":         "histogram",
	"coverd_cluster_boundary_bytes_total":     "counter",
	"coverd_cluster_frames_total":             "counter",
	"coverd_job_queue_wait_seconds":           "histogram",
	"coverd_request_stage_seconds":            "histogram",
	"coverd_queue_depth":                      "gauge",
	"coverd_queue_capacity":                   "gauge",
	"coverd_workers":                          "gauge",
	"coverd_cache_entries":                    "gauge",
	"coverd_sessions":                         "gauge",
	"coverd_session_bytes":                    "gauge",
	"coverd_session_bytes_budget":             "gauge",
}

// TestMetricsExposition runs solves on two engines plus a traced solve,
// then asserts the /metrics output (a) parses as Prometheus text
// exposition 0.0.4, (b) declares every documented family with the
// documented type, and (c) carries the expected telemetry series with
// their engine/phase/direction labels.
func TestMetricsExposition(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	inst := genInstance(t, 40, 80, 3, 7)
	if _, err := c.Solve(ctx, inst, api.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, inst, api.SolveOptions{Engine: api.EngineFlat}); err != nil {
		t.Fatal(err)
	}

	// A traced solve of a fresh instance must return a report, bypass the
	// cache in both directions, and leave a trace id for correlation.
	traced := genInstance(t, 40, 80, 3, 8)
	res, err := c.Solve(ctx, traced, api.SolveOptions{Engine: api.EngineFlat, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("traced solve must not be served from the cache")
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("traced solve returned no telemetry report")
	}
	if rep.TraceID == "" || rep.Engine != "flat" {
		t.Fatalf("report identity wrong: trace_id=%q engine=%q", rep.TraceID, rep.Engine)
	}
	if len(rep.Iterations) == 0 || rep.TotalSeconds <= 0 {
		t.Fatalf("report has no timing detail: %+v", rep)
	}
	var phaseSum float64
	for _, s := range rep.PhaseSeconds {
		phaseSum += s
	}
	if phaseSum <= 0 {
		t.Fatalf("report phase_seconds all zero: %+v", rep.PhaseSeconds)
	}
	// The traced solve must not have populated the cache either.
	again, err := c.Solve(ctx, traced, api.SolveOptions{Engine: api.EngineFlat})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("traced solve leaked its result into the cache")
	}
	if again.Report != nil {
		t.Fatal("untraced solve carried a telemetry report")
	}

	text := scrapeExposition(t, hs.URL)
	help, typed := parseExposition(t, text)
	for fam, wantType := range documentedMetricFamilies {
		if !help[fam] {
			t.Errorf("family %s missing HELP header", fam)
		}
		if got := typed[fam]; got != wantType {
			t.Errorf("family %s: TYPE %q, want %q", fam, got, wantType)
		}
	}

	// Telemetry series: both engines ran, so per-phase histograms must
	// exist for each under the right labels, and the queue-wait histogram
	// must have observed every job.
	for _, series := range []string{
		`coverd_solve_phase_seconds_count{engine="sim",phase="vertex"}`,
		`coverd_solve_phase_seconds_count{engine="sim",phase="edge"}`,
		`coverd_solve_phase_seconds_count{engine="flat",phase="vertex"}`,
		`coverd_solve_phase_seconds_count{engine="flat",phase="gather"}`,
		`coverd_solve_phase_seconds_bucket{engine="flat",phase="init",`,
		`coverd_cluster_boundary_bytes_total{direction="sent"} 0`,
		`coverd_cluster_boundary_bytes_total{direction="received"} 0`,
		`coverd_cluster_frames_total{direction="sent"} 0`,
		`coverd_job_queue_wait_seconds_count`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
	if strings.Contains(text, "coverd_job_queue_wait_seconds_count 0\n") {
		t.Error("queue-wait histogram observed nothing despite completed jobs")
	}

	// Request stages: every solve above went through POST /v1/solve and
	// decoded, built, hashed and encoded its instance exactly once.
	for _, stage := range []string{"decode", "build", "hash", "encode"} {
		series := `coverd_request_stage_seconds_count{route="solve",stage="` + stage + `"} 4` + "\n"
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}
}

func scrapeExposition(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d, err %v", resp.StatusCode, err)
	}
	return string(body)
}

// parseExposition validates every line of a Prometheus text scrape and
// returns which families carried HELP headers and their declared types.
func parseExposition(t *testing.T, text string) (help map[string]bool, typed map[string]string) {
	t.Helper()
	help = map[string]bool{}
	typed = map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition")
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			help[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("sample line %q is not `name value`", line)
		}
		metric := f[0]
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			if !strings.HasSuffix(metric, "}") {
				t.Fatalf("unbalanced label braces in %q", line)
			}
			metric = metric[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(metric,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[metric]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no TYPE header", line)
			}
		}
	}
	return help, typed
}
