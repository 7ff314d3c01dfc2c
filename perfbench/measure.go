package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"ftpcloud/internal/obs"
)

// setupRepeats is how many times an iteration builds its workload; only the
// last build is run.
const setupRepeats = 3

// setUp runs build setupRepeats times and returns the median duration in
// seconds. The first build in a fresh process also pays for growing the
// heap, so one build alone reads mostly page faults. Before each build, drop
// releases the previous one and its garbage is collected, so no two builds
// are ever live together and the measured phase starts from the heap a
// single build leaves.
func setUp(build func() error, drop func()) (float64, error) {
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		drop()
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return sortedFloats(times)[setupRepeats/2], nil
}

// phase measures one stretch of the run from outside the program: wall
// time, process CPU time and the Go runtime's GC and allocation counters.
type phase struct {
	wall time.Time
	cpu  time.Duration
	rt   []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func startPhase() *phase {
	p := &phase{rt: readRuntime()}
	p.cpu = processCPU()
	p.wall = time.Now()
	return p
}

// phaseResult is what a phase cost.
type phaseResult struct {
	wall, cpu  time.Duration
	gcCycles   uint64
	gcCPU      float64
	allocBytes uint64
	allocs     uint64
}

func (p *phase) stop() phaseResult {
	wall := time.Since(p.wall)
	cpu := processCPU() - p.cpu
	rt := readRuntime()
	return phaseResult{
		wall:       wall,
		cpu:        cpu,
		gcCycles:   rt[0].Value.Uint64() - p.rt[0].Value.Uint64(),
		gcCPU:      rt[1].Value.Float64() - p.rt[1].Value.Float64(),
		allocBytes: rt[2].Value.Uint64() - p.rt[2].Value.Uint64(),
		allocs:     rt[3].Value.Uint64() - p.rt[3].Value.Uint64(),
	}
}

// runtimeLayers reports the Go runtime's share of a phase.
func (r phaseResult) runtimeLayers(m map[string]float64) {
	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_cpu_s"] = r.gcCPU
	m["runtime.alloc_mb"] = float64(r.allocBytes) / 1e6
	m["runtime.allocs_m"] = float64(r.allocs) / 1e6
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// quantileMS derives a quantile from a histogram's bucket counts, linearly
// interpolated inside the bucket it falls in; an observation in the +Inf
// bucket reads as the last finite bound. Zero when the histogram is empty.
func quantileMS(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	var lower int64
	for _, b := range h.Buckets {
		if b.LENanos < 0 {
			return float64(lower) / 1e6
		}
		next := cum + float64(b.Count)
		if next >= rank && b.Count > 0 {
			frac := (rank - cum) / float64(b.Count)
			return (float64(lower) + frac*float64(b.LENanos-lower)) / 1e6
		}
		cum = next
		lower = b.LENanos
	}
	return float64(lower) / 1e6
}

// exactQuantile is a nearest-rank quantile of already sorted values.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
