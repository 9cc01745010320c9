// Command e2ebench is the end-to-end checkpointing benchmark of this
// repository. It runs one workload for a fixed time and prints every
// metric with its unit and sample count, then one JSON result line:
//
//	bash e2ebench/run.sh --workload dp-file --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md in this directory):
//
//	dp-file        data-parallel LowDiff, Top-K, batched diffs, file store
//	plus-pool      LowDiff+ through an in-process lowdiff daemon over loopback
//	recover-chain  serial and parallel recovery of a 150-diff chain
//
// --trace 0 measures the end-to-end metrics with tracing and timing
// wrappers off; --trace 1 is a separate run with the trace recorder, the
// metrics registry and the timing store wrappers on, and reports the
// per-layer metrics. The command exits 1 when any operation failed or any
// restore or store check did not hold, and 2 on bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lowdiff/internal/model"
)

// bench is one run of one workload.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string // scratch space for stores, removed at exit
	spec    model.Spec
	rep     *report
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"dp-file":       runDPFile,
	"plus-pool":     runPlusPool,
	"recover-chain": runRecoverChain,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: model initialisation and gradient noise")
	seconds := fs.Int("seconds", 30, "how long the measured part of the run lasts")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	// Stores live under .bench_build in the working directory, so a run
	// writes nowhere but the checkout it is started from.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "e2ebench-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		dir:     dir,
		spec:    spec.Scaled(2000), // GPT2-S ÷ 2000 = 58,489 parameters
		rep:     newReport(),
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d params %d\n",
		*workload, *seed, *seconds, *traced, b.spec.NumParams())
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	b.rep.set("max_rss_mb", maxRSSMB(), 1)
	if err := b.rep.write(stdout, b.traced); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if len(b.rep.failures) > 0 {
		return 1
	}
	return 0
}

// setupRepeated runs set-up n times, records the median as setup_s, and
// keeps the last environment; the earlier ones are torn down.
func setupRepeated[T interface{ close() error }](b *bench, n int, setup func() (T, error)) (T, error) {
	var walls samples
	var env T
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := env.close(); err != nil {
				return env, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	b.rep.set("setup_s", walls.median(), len(walls))
	return env, nil
}
