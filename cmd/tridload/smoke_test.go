package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// smokeSpec shrinks a workload so a run takes about a second and still
// yields every metric: fewer rows per op, for serve-http cheap spline
// requests served per request (no coalescing wait) at a rate that gives
// the fixed phase its 1000 samples quickly, and for coalesce-burst a
// rate the batcher sustains even under the race detector, in flushes
// small enough that a half-second traced phase holds a hundred of them.
func smokeSpec(w *workloadSpec) (spec workloadSpec, untraced, traced float64) {
	spec = *w
	switch w.name {
	case "serve-http":
		spec.share = [numClasses]float64{classSpline: 1}
		spec.serverArgs = []string{"-addr", "127.0.0.1:0", "-fleet", "2"}
		spec.rate = 900
		return spec, 2, 1
	case "coalesce-burst":
		spec.rate, spec.maxBatch = 1500, 4
	case "adi-step":
		spec.n = 32
	case "dist-huge":
		spec.n = 4097
	}
	return spec, 1, 1
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks that BENCHMARK.json and the workload and metric tables
// agree, that each run measures every metric BENCHMARK.json names with
// its unit, and that no output is incorrect.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload: about 20s")
	}
	e := testEnv(t, false, 0)
	bf, err := readBenchmark(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkTablesAgree(t, bf)

	// Set-up is timed in fresh tridload processes.
	e.self = filepath.Join(e.bindir, "tridload")
	if out, err := exec.Command("go", "build", "-o", e.self, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tridload: %v\n%s", err, out)
	}
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		spec, untraced, traced := smokeSpec(w)
		for _, trace := range []bool{false, true} {
			e.trace, e.seconds = trace, untraced
			if trace {
				e.seconds = traced
			}
			o, err := spec.run(e, &spec)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, trace, err)
			}
			r := o.result(trace)
			if r.Incorrect != 0 {
				t.Errorf("%s (trace %t): %d incorrect results", w.name, trace, r.Incorrect)
			}
			if _, err := contractLine(r, trace); err != nil {
				t.Errorf("%s (trace %t): %v", w.name, trace, err)
			}
			for name, v := range r.Metrics {
				if u, ok := units[name]; ok && u != v.Unit {
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w.name, name, v.Unit, u)
				}
			}
		}
	}
}

// checkTablesAgree compares BENCHMARK.json with the workload and metric
// tables: the same workloads with the same reasons, and the same
// end-to-end and per-layer metrics with the same units and directions.
func checkTablesAgree(t *testing.T, bf *benchmarkFile) {
	t.Helper()
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), table %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, tridload defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	type def struct{ unit, better string }
	want := map[metricClass]map[string]def{endToEnd: {}, perLayer: {}}
	for _, m := range metricTable {
		if m.class != extra {
			want[m.class][m.name] = def{m.unit, m.better}
		}
	}
	got := map[metricClass]map[string]def{endToEnd: {}, perLayer: {}}
	for _, m := range bf.EndToEnd {
		got[endToEnd][m.Name] = def{m.Unit, m.Better}
	}
	for _, m := range bf.PerLayer {
		got[perLayer][m.Name] = def{m.Unit, m.Better}
	}
	for class, defs := range want {
		for name, d := range defs {
			if got[class][name] != d {
				t.Errorf("metric %s: table %+v, BENCHMARK.json %+v", name, d, got[class][name])
			}
		}
		for name := range got[class] {
			if _, ok := defs[name]; !ok {
				t.Errorf("BENCHMARK.json names %s, which the metric table does not have in that class", name)
			}
		}
	}
}
