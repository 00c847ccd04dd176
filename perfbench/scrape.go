package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// exposition is one parsed /metrics scrape: the declared families (from
// their # TYPE lines) and every sample keyed by its full series name,
// labels included.
type exposition struct {
	types   map[string]string
	samples map[string]float64
}

// scrape fetches and parses a coverd's Prometheus exposition.
func scrape(url string) (*exposition, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (*exposition, error) {
	x := &exposition{types: map[string]string{}, samples: map[string]float64{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) == 2 {
				x.types[f[0]] = f[1]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		x.samples[line[:i]] = v
	}
	return x, sc.Err()
}

// total sums the samples of series name (e.g. coverd_solve_seconds_sum)
// whose label set contains every label in want ("" matches all). It fails
// when the family the series belongs to is not declared, so a renamed or
// dropped family stops the benchmark instead of silently reading zero.
func (x *exposition) total(name string, want ...string) (float64, error) {
	family := name
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suf); ok && x.types[base] == "histogram" {
			family = base
		}
	}
	if _, ok := x.types[family]; !ok {
		return 0, fmt.Errorf("metrics: family %s missing from the /metrics exposition", family)
	}
	t := 0.0
	for key, v := range x.samples {
		series, labels, _ := strings.Cut(key, "{")
		if series != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t, nil
}

// scrapeDiff holds the scrapes of a set of coverd nodes taken before and
// after a measured window.
type scrapeDiff struct {
	before, after []*exposition
	err           error // first failed read; the caller reports it
}

func scrapeAll(nodes []*node) ([]*exposition, error) {
	out := make([]*exposition, len(nodes))
	for i, n := range nodes {
		x, err := scrape(n.url)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// delta returns after−before of series name summed over the listed nodes.
func (d *scrapeDiff) delta(name string, nodes []int, want ...string) float64 {
	t := 0.0
	for _, i := range nodes {
		a, err := d.after[i].total(name, want...)
		if err == nil {
			var b float64
			b, err = d.before[i].total(name, want...)
			t += a - b
		}
		if err != nil && d.err == nil {
			d.err = err
		}
	}
	return t
}
