package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// worsening is how much worse cur is than base, as a share of base:
// positive when worse, whichever direction is better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// compareResults checks every workload of base against cur: each
// end-to-end metric may worsen by at most its BENCHMARK.json bound,
// exact (modeled) metrics must match, error_rate may not rise, and every
// workload must be present and correct. It returns one row per workload
// and whether any regressed.
func compareResults(bf *benchmarkFile, base, cur *resultFile) ([]string, bool) {
	var rows []string
	regressed := false
	for _, w := range workloads {
		b, ok := base.Workloads[w.name]
		if !ok {
			continue
		}
		c, ok := cur.Workloads[w.name]
		if !ok {
			rows = append(rows, fmt.Sprintf("%-15s REGRESSION missing", w.name))
			regressed = true
			continue
		}
		var cells, bad []string
		if !c.Correct {
			bad = append(bad, "incorrect results")
		}
		for _, m := range bf.EndToEnd {
			bv, ok1 := b.Metrics[m.Name]
			cv, ok2 := c.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			d := worsening(bv.Value, cv.Value, m.Better)
			cell := fmt.Sprintf("%s %+.1f%%/%g%%", m.Name, 100*d, 100*m.Bound)
			cells = append(cells, cell)
			if d > m.Bound {
				bad = append(bad, cell)
			}
		}
		for _, m := range metricTable {
			bv, ok1 := b.Metrics[m.name]
			cv, ok2 := c.Metrics[m.name]
			if !ok1 || !ok2 {
				continue
			}
			switch {
			case m.exact && bv.Value != cv.Value:
				bad = append(bad, fmt.Sprintf("%s %g != %g", m.name, cv.Value, bv.Value))
			case m.zeroBound && cv.Value > bv.Value:
				bad = append(bad, fmt.Sprintf("%s %g > %g", m.name, cv.Value, bv.Value))
			}
		}
		verdict := "ok"
		if len(bad) > 0 {
			verdict = "REGRESSION " + strings.Join(bad, "; ")
			regressed = true
		}
		rows = append(rows, fmt.Sprintf("%-15s %s  [%s]", w.name, verdict, strings.Join(cells, ", ")))
	}
	return rows, regressed
}

// runCheck is tridload -check: exit 1 when cur regressed from base.
func runCheck(benchPath, basePath, curPath string, stdout, stderr io.Writer) int {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "tridload: %v\n", err)
		return 1
	}
	var rf [2]*resultFile
	for i, p := range []string{basePath, curPath} {
		if rf[i], err = readResult(p); err != nil {
			fmt.Fprintf(stderr, "tridload: %v\n", err)
			return 1
		}
	}
	rows, regressed := compareResults(bf, rf[0], rf[1])
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if regressed {
		return 1
	}
	return 0
}
