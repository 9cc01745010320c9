package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON keeps the metric names, units and
// directions the command prints in step with ../BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var want []metricDef
	for _, m := range doc.EndToEnd {
		want = append(want, metricDef{m.Name, m.Unit, false, m.Better})
	}
	for _, m := range doc.PerLayer {
		want = append(want, metricDef{m.Name, m.Unit, true, m.Better})
	}
	if len(want) != len(catalogue) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(want), len(catalogue))
	}
	for i := range want {
		if want[i] != catalogue[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the command %+v", i, want[i], catalogue[i])
		}
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
}

// TestWorkloadsRunCorrect runs every workload briefly in both modes and
// checks that the result line reports a correct run with its metric set.
func TestWorkloadsRunCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for name := range workloads {
		for _, traced := range []string{"0", "1"} {
			if name == "recover-chain" && traced == "0" {
				continue // at least 100 recovery pairs: too slow for a unit test
			}
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", traced}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s --trace %s exited %d: %s\n%s", name, traced, code, errOut.String(), out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s --trace %s: result %+v", name, traced, res)
			}
			for _, d := range catalogue {
				if _, ok := res.Metrics[d.name]; ok != (d.layer == (traced == "1")) {
					t.Errorf("%s --trace %s: metric %s present = %v", name, traced, d.name, ok)
				}
			}
		}
	}
	if left, _ := filepath.Glob(".bench_build/e2ebench-*"); len(left) != 0 {
		t.Errorf("runs left %v behind", left)
	}
}
