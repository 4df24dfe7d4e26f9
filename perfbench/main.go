// Command perfbench is evvo's serving benchmark. It runs one workload
// against in-process cloudd members built as cmd/cloudd builds them by
// default, on loopback listeners, from a single load generator with at
// most two requests in flight; checks every plan it gets back; and prints
// each metric by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this package first):
//
//	perfbench --workload commute-spread|rush-hour-hot|fleet-batch-cluster
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the traced run: it measures the workload once untraced and once traced,
// replays every traced request through the public layer functions, writes
// the spans under .bench_build/perfbench/ and reports the per-layer
// metrics. perfbench/README.md lists the metrics and what each should
// move. A failed correctness or replay-fidelity check makes the exit
// status non-zero. While it runs, idle-class spinner processes keep the
// CPUs from halting (warm.go); they end before it does.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/dp"
	"evvo/internal/road"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
	}
	os.Exit(run())
}

// run is the benchmark proper; it returns the exit status once every
// process it started has ended.
func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1 (%v)\n",
			strings.Join(workloadNames(), ", "), err)
		return 2
	}
	spinners, stopSpinners := keepWarm()
	defer stopSpinners()
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		chk: &checker{routeLenM: road.US25().LengthM()}, outDir: filepath.Join(".bench_build", "perfbench")}
	b.env = newEnv(w, *seed, *seconds, *trace)
	b.env.KeepWarm = spinners
	b.printf("env %s", mustJSON(b.env))
	out, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(mustJSON(out))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// result is the final line of standard output.
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

// envRecord is printed first in every run and stored with its report.
type envRecord struct {
	NProc          int        `json:"nproc"`
	GOMAXPROCS     int        `json:"gomaxprocs"`
	CPUModel       string     `json:"cpuModel"`
	GoVersion      string     `json:"goVersion"`
	KernelsEnabled bool       `json:"dpKernelsEnabled"`
	Commit         string     `json:"commit"`
	Seed           int64      `json:"seed"`
	Seconds        int        `json:"seconds"`
	Trace          int        `json:"trace"`
	Workload       string     `json:"workload"`
	Workloads      []workload `json:"workloads"`
	Conns          int        `json:"generatorConns"`
	// KeepWarm is how many idle-class spinners kept the CPUs awake.
	KeepWarm int `json:"keepWarmSpinners"`
}

func newEnv(w workload, seed int64, seconds, trace int) envRecord {
	return envRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), KernelsEnabled: dp.KernelsEnabled(), Commit: commit(),
		Seed: seed, Seconds: seconds, Trace: trace, Workload: w.Name, Workloads: workloads, Conns: conns,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the build stamped, or "unknown" when the
// benchmark was built outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are marshalled
	}
	return string(b)
}

// checker is the correctness gate every answered plan passes through.
type checker struct {
	routeLenM float64
	mu        sync.Mutex
	failures  int
	first     []string
}

func (c *checker) check(r *cloud.Response) {
	if err := checkPlan(r, c.routeLenM); err != nil {
		c.fail(err)
	}
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.first) < 5 {
		c.first = append(c.first, err.Error())
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures == 0
}
