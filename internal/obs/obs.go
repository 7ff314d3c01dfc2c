// Package obs is the census's observability substrate: a dependency-free
// metrics layer of atomic counters, gauges, and fixed-bucket latency
// histograms behind a Registry, plus a diffable Snapshot for rate
// computation. The paper's measurement ran for days; its operators watched
// probe rates, enumeration throughput, and failure classes live ("Ten Years
// of ZMap" stresses exactly this layer). Every pipeline stage registers its
// counters here, the progress reporter diffs snapshots on an interval, and
// the debug endpoint exports the registry as expvar alongside pprof.
//
// Metrics are cheap enough for hot paths: a Counter.Add is one atomic add,
// and components resolve their metric pointers once at construction, never
// per operation. A nil *Registry is valid everywhere and yields unregistered
// (but still functional) metrics, so instrumented code needs no nil checks.
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. A counter may be
// linked to a parent (Registry.ChildCounter): every increment then flows to
// the parent as well, so a per-shard counter and the merged global view
// stay consistent from one atomic add each.
type Counter struct {
	v      atomic.Uint64
	parent *Counter
}

// NewCounter returns a standalone (unregistered) counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n, and its parent chain with it.
func (c *Counter) Add(n uint64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (in-flight work, queue depth).
type Gauge struct{ v atomic.Int64 }

// NewGauge returns a standalone (unregistered) gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark idiom (peak in-flight sessions, peak live state). Lock-free
// and safe against concurrent SetMax callers.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DefaultLatencyBuckets covers the per-interaction latencies LZR-style
// service identification leans on: sub-millisecond simulated round trips up
// through multi-second hostile stalls.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// WideBuckets suits whole-host durations: the enumerator's per-host budget
// defaults to two minutes, so the top buckets reach past it.
var WideBuckets = []time.Duration{
	1 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 5 * time.Second, 15 * time.Second, 30 * time.Second,
	time.Minute, 2 * time.Minute, 5 * time.Minute,
}

// Histogram is a fixed-bucket latency histogram. Each bucket counts
// observations at or below its upper bound; observations above the last
// bound land in an implicit +Inf bucket. All methods are lock-free.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a standalone histogram over the given ascending
// bounds; no bounds means DefaultLatencyBuckets.
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Since observes the time elapsed from start — the timing idiom at call
// sites: defer-free, one line after the operation.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Registry is a named collection of metrics. All methods are safe for
// concurrent use and valid on a nil receiver: a nil registry hands out
// functional but unregistered metrics, so instrumentation can be wired
// unconditionally and enabled by supplying a registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return NewCounter()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// ChildCounter returns the counter named prefix+name whose increments also
// flow into the plain counter named name — the per-shard/merged pattern:
// shard pipelines write "shard0.zmap.probed" and readers of "zmap.probed"
// see the fleet-wide total. An empty prefix is just Counter(name); a nil
// registry hands out a standalone counter.
func (r *Registry) ChildCounter(prefix, name string) *Counter {
	if prefix == "" || r == nil {
		return r.Counter(name)
	}
	return r.linked(prefix+name, name)
}

// ClassCounter returns the counter named name+"."+class whose increments
// also flow into the counter named name — one child per cause under a
// total, e.g. "enum.retries.reset" under "enum.retries". A nil registry
// hands out a standalone counter.
func (r *Registry) ClassCounter(name, class string) *Counter {
	if r == nil {
		return NewCounter()
	}
	return r.linked(name+"."+class, name)
}

// linked returns the counter named child, creating it with the counter
// named parent as its parent.
func (r *Registry) linked(child, parent string) *Counter {
	p := r.Counter(parent)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[child]
	if !ok {
		c = &Counter{parent: p}
		r.counters[child] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return NewGauge()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls reuse the existing buckets regardless of
// bounds). No bounds means DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, bounds ...time.Duration) *Histogram {
	if r == nil {
		return NewHistogram(bounds...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot. LENanos is the inclusive
// upper bound in nanoseconds; -1 marks the +Inf bucket.
type Bucket struct {
	LENanos int64  `json:"le_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is a histogram frozen at snapshot time.
type HistogramSnapshot struct {
	Count    uint64   `json:"count"`
	SumNanos int64    `json:"sum_ns"`
	Buckets  []Bucket `json:"buckets"`
}

// Snapshot is the registry frozen at one instant. Snapshots are plain data:
// JSON-serializable for -metrics-out and expvar, and diffable with Sub for
// rate computation.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes every registered metric. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:    h.count.Load(),
			SumNanos: h.sum.Load(),
			Buckets:  make([]Bucket, len(h.counts)),
		}
		for i := range h.counts {
			le := int64(-1)
			if i < len(h.bounds) {
				le = int64(h.bounds[i])
			}
			hs.Buckets[i] = Bucket{LENanos: le, Count: h.counts[i].Load()}
		}
		s.Histograms[name] = hs
	}
	return s
}

// Sub returns the delta from prev to s: counter and histogram counts are
// subtracted (clamped at zero), gauges keep their current value — a gauge
// delta has no operational meaning.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		p := prev.Counters[name]
		if v < p {
			p = v
		}
		d.Counters[name] = v - p
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		ph := prev.Histograms[name]
		dh := HistogramSnapshot{Count: h.Count, SumNanos: h.SumNanos}
		if ph.Count <= h.Count {
			dh.Count = h.Count - ph.Count
			dh.SumNanos = h.SumNanos - ph.SumNanos
		}
		dh.Buckets = make([]Bucket, len(h.Buckets))
		copy(dh.Buckets, h.Buckets)
		for i := range dh.Buckets {
			if i < len(ph.Buckets) && ph.Buckets[i].Count <= dh.Buckets[i].Count {
				dh.Buckets[i].Count -= ph.Buckets[i].Count
			}
		}
		d.Histograms[name] = dh
	}
	return d
}

// Empty reports whether the snapshot carries no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the snapshot as indented JSON to a new file at path.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns map keys in stable order for rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
