package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

// goldenIDs are the experiments pinned by golden files. Everything in
// the harness is deterministic (fixed seeds, analytic models), so any
// diff means a model or kernel change — which must be intentional and
// re-recorded with `go test ./internal/bench -update-golden`.
var goldenIDs = append([]string{"table1", "table2", "fig12a", "extra-banks"}, Ablations()...)

func TestGoldenExperiments(t *testing.T) {
	e := DefaultEnv()
	e.Scale = 16
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			var tab *Table
			var err error
			switch {
			case strings.HasPrefix(id, "extra-"):
				tab, err = e.RunExtra(id)
			case strings.HasPrefix(id, "ablation-"):
				tab, err = e.RunAblation(id)
			default:
				tab, err = e.Run(id)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := tab.CSV()
			path := filepath.Join("testdata", "golden_"+id+".csv")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from golden.\n--- got ---\n%s--- want ---\n%s",
					id, got, want)
			}
		})
	}
}
