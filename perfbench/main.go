// Command perfbench runs one iteration of a repository benchmark workload
// and prints one JSON sample line: the end-to-end metrics, the correctness
// verdict and, with -trace, the per-layer metrics from the traced run.
// perfbench/run.py builds it, repeats it for a run's length and reports
// medians.
//
// Workloads:
//
//	census-benign      CPU-heavy census of the calibrated benign world
//	census-funnel      latency-bound staged funnel over a mixed world, 2 shards
//	honeypot-campaign  write-heavy attacker campaign against 100 honeypots
//
// Usage:
//
//	perfbench -workload census-benign -seed 3 -trace 0 -work .bench_build/work
//	perfbench -record 16 -golden perfbench/golden.json -work .bench_build/work
//
// -record reruns every workload (or the one -workload names) on benchmark
// seeds 0..N-1 and rewrites its entries in the golden file the correctness
// gate compares against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark configuration.
type workload struct {
	name string
	run  func(ctx context.Context, seed uint64, traced bool, work string) (*sample, error)
}

var workloads = []workload{
	{"census-benign", runCensusBenign},
	{"census-funnel", runCensusFunnel},
	{"honeypot-campaign", runHoneypot},
}

// baseSeed is the world seed the census workloads measure and the honeypot
// fleet seed of benchmark seed 0.
const baseSeed = 42

// sample is one iteration's outcome.
type sample struct {
	Workload string `json:"workload"`
	// WorldSeed keys the golden values the iteration is checked against.
	WorldSeed uint64   `json:"world_seed"`
	Traced    bool     `json:"traced"`
	OK        bool     `json:"ok"`
	Problems  []string `json:"problems,omitempty"`
	// Attempted counts the workload's operations: responsive endpoints or
	// attacker sessions. Failed counts those that failed.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// E2E holds the iteration's end-to-end measurements, plus cpu_s, the
	// process CPU time of the measured phase.
	E2E map[string]float64 `json:"e2e"`
	// Layers holds the per-layer metrics of a traced iteration.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Golden is what the correctness gate compares; it is not printed.
	Golden *golden `json:"golden,omitempty"`
}

func (s *sample) problem(format string, args ...any) {
	s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run")
		seed       = flag.Uint64("seed", 0, "benchmark seed")
		trace      = flag.Int("trace", 0, "1 runs the traced iteration")
		work       = flag.String("work", ".bench_build/work", "directory for ledgers and span files")
		goldenPath = flag.String("golden", "", "golden file (default perfbench/golden.json)")
		record     = flag.Int("record", 0, "rewrite the golden file from this many world seeds")
		envOnly    = flag.Bool("env", false, "print the environment record and exit")
	)
	flag.Parse()
	if *envOnly {
		if err := json.NewEncoder(os.Stdout).Encode(environment()); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *record > 0 {
		if err := recordGolden(ctx, *goldenPath, *work, *name, *record); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	gold, err := loadGolden(*goldenPath)
	if err != nil {
		fatal(err)
	}
	s, err := w.run(ctx, *seed, *trace == 1, *work)
	if err != nil {
		fatal(err)
	}
	s.Workload, s.Traced = w.name, *trace == 1
	gold.check(s)
	s.OK = len(s.Problems) == 0
	s.Golden = nil
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fatal(err)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// recordGolden runs the named workload, or every workload when name is
// empty, untraced on benchmark seeds 0..n-1 and writes what the correctness
// gate checks into the golden file, keyed by world seed. Seeds that share a
// world must agree, so recording also checks that the census tables do not
// depend on the scan order.
func recordGolden(ctx context.Context, path, work, name string, n int) error {
	g, err := loadGolden(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if g == nil {
		g = goldenFile{}
	}
	for _, w := range workloads {
		if name != "" && name != w.name {
			continue
		}
		g[w.name] = map[string]*golden{}
		for i := 0; i < n; i++ {
			start := time.Now()
			s, err := w.run(ctx, uint64(i), false, work)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, i, err)
			}
			if len(s.Problems) > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, i, s.Problems)
			}
			key := fmt.Sprint(s.WorldSeed)
			if prev, ok := g[w.name][key]; ok && *prev != *s.Golden {
				return fmt.Errorf("%s seed %d: output %+v differs from %+v on the same world", w.name, i, *s.Golden, *prev)
			}
			g[w.name][key] = s.Golden
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d (world %s) in %v\n", w.name, i, key, time.Since(start).Round(time.Millisecond))
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFilePath(path), append(b, '\n'), 0o644)
}

// golden is what one workload must reproduce on one world seed. Census
// workloads are checked on the rendered tables; the honeypot campaign only
// on the counts that do not depend on goroutine interleaving.
type golden struct {
	TablesSHA256    string `json:"tables_sha256,omitempty"`
	Sessions        int    `json:"sessions,omitempty"`
	Errors          int    `json:"errors,omitempty"`
	UniqueScanners  int    `json:"unique_scanners,omitempty"`
	SpokeFTP        int    `json:"spoke_ftp,omitempty"`
	CredentialPairs int    `json:"credential_pairs,omitempty"`
	Uploads         int    `json:"uploads,omitempty"`
	AnonymousLogins int    `json:"anonymous_logins,omitempty"`
}

type goldenFile map[string]map[string]*golden

func goldenFilePath(path string) string {
	if path != "" {
		return path
	}
	return filepath.Join("perfbench", "golden.json")
}

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(goldenFilePath(path))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

// check compares the sample's observed golden values with the recorded ones.
func (g goldenFile) check(s *sample) {
	want, ok := g[s.Workload][fmt.Sprint(s.WorldSeed)]
	if !ok {
		s.problem("no golden values for %s seed %d", s.Workload, s.WorldSeed)
		return
	}
	if s.Golden == nil {
		s.problem("workload produced no checkable output")
		return
	}
	if *s.Golden != *want {
		s.problem("output differs from golden: got %+v, want %+v", *s.Golden, *want)
	}
}

// environment records the machine and toolchain a result was measured on.
func environment() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpu,
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// sortedFloats returns a sorted copy.
func sortedFloats(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
