// Command perfbench is the repository's benchmark. It starts an
// in-process loopback fleet of five signer daemons behind one
// coordinator, keys it with a distributed keygen over HTTP, and drives
// it only through the public client package:
//
//	go run . --workload sign-open --seed 1 --seconds 22 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// reruns the workload with spans around every layer boundary and prints
// the per-layer metrics. Either way it checks every returned signature
// and exits non-zero, without a result line, when any is wrong. See
// README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// config is one run's settings. The flags set workload, seed, seconds
// and trace; the rest are fixed by the benchmark (and shrunk by the
// smoke test).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root
	buildDir string // where span dumps and registries go

	setups          int           // fleet set-ups timed for setup_s
	warmup          time.Duration // untimed traffic of each shape before the first slice
	batchProbes     int           // SignBatch probes per slot
	signProbeRounds int           // Signs per client in each Sign throughput probe (open-loop workloads)
	refreshProbes   int           // RunRefresh probes per slot on workloads that do not refresh
	ladderReps      int           // calls per ladder rung
	localReps       int           // in-process keygen/refresh repetitions

	// wrapClient, when set, wraps the client's transport (the smoke test
	// uses it to corrupt a response).
	wrapClient func(http.RoundTripper) http.RoundTripper
}

func defaultConfig() config {
	return config{
		warmup:          1500 * time.Millisecond,
		batchProbes:     2,
		signProbeRounds: 2,
		refreshProbes:   2,
		ladderReps:      15,
		localReps:       3,
	}
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "sign-open", "workload: sign-open, sign-bulk or kms-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the message and arrival schedules")
	flag.Float64Var(&cfg.seconds, "seconds", 22, "measured seconds, split between the slices of the light and loaded phases")
	flag.IntVar(&trace, "trace", 0, "1 for the traced pass with per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = setupsFor(cfg.workload)
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.root = wd
	cfg.buildDir = filepath.Join(wd, ".bench_build")

	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result. A correctness
// failure is an error: the run has no result.
func run(ctx context.Context, cfg config, rep io.Writer) (*result, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloads)
	}
	fp := hostFingerprint(cfg.root)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(rep, "perfbench %s seed=%d seconds=%g trace=%v\nhost: %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, fpJSON)

	t0 := time.Now()
	r := &runner{cfg: cfg, workers: runtime.NumCPU()}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	defer r.fleet.close()

	t1 := time.Now()
	workload := map[string]func(context.Context) error{
		"sign-open": r.runSignOpen,
		"sign-bulk": r.runSignBulk,
		"kms-churn": r.runKMSChurn,
	}[cfg.workload]
	if err := workload(ctx); err != nil {
		return nil, err
	}

	t2 := time.Now()
	checked, problems := r.gate(ctx)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(rep, "correctness:", p)
		}
		return nil, fmt.Errorf("correctness gate failed: %d problems (first: %s)", len(problems), problems[0])
	}
	fmt.Fprintf(rep, "correctness: %d signatures verified under their tenants' fetched keys, %d tampered messages rejected, %d refreshes kept the key\n",
		checked, min(tamperSamples, checked), len(r.allRefreshes()))

	fmt.Fprintf(rep, "wall time: set-up %.1fs, workload %.1fs, gate %.1fs\n", t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds())

	attempted, failed := r.counts()
	for _, f := range r.failures {
		fmt.Fprintln(rep, "failed operation:", f)
	}
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	var ms []metric
	if !cfg.trace {
		ms = r.endToEnd()
	} else {
		rungs, err := ladder(cfg.ladderReps, cfg.seed)
		if err != nil {
			return nil, err
		}
		kg, rf, err := localProtocols(cfg.localReps)
		if err != nil {
			return nil, err
		}
		ms = r.perLayer(r.tr.snapshot(), rungs, kg, rf, rep)
		path := traceFile(cfg.buildDir, cfg.workload, cfg.seed)
		if err := r.tr.dump(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(rep, "spans written to %s\n", path)
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
		fmt.Fprintf(rep, "metric %-36s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res, nil
}
