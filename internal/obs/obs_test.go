package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test.counter")
	g := reg.Gauge("test.gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 0 {
		t.Errorf("gauge = %d, want 0", g.Load())
	}
	if got := reg.Counter("test.counter"); got != c {
		t.Error("Counter is not get-or-create: second lookup returned a new counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive upper bound)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := []uint64{2, 1, 0, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestNilRegistryIsUsable(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z").Observe(time.Millisecond)
	if !reg.Snapshot().Empty() {
		t.Error("nil registry snapshot is not empty")
	}
}

func TestSnapshotSubAndJSON(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("probes")
	h := reg.Histogram("lat", time.Millisecond, time.Second)
	c.Add(10)
	h.Observe(2 * time.Millisecond)
	prev := reg.Snapshot()
	c.Add(5)
	h.Observe(3 * time.Millisecond)
	cur := reg.Snapshot()

	delta := cur.Sub(prev)
	if delta.Counters["probes"] != 5 {
		t.Errorf("counter delta = %d, want 5", delta.Counters["probes"])
	}
	if delta.Histograms["lat"].Count != 1 {
		t.Errorf("histogram count delta = %d, want 1", delta.Histograms["lat"].Count)
	}

	var buf bytes.Buffer
	if err := cur.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["probes"] != 15 {
		t.Errorf("round-tripped counter = %d, want 15", back.Counters["probes"])
	}
	hs := back.Histograms["lat"]
	if hs.Count != 2 || len(hs.Buckets) != 3 {
		t.Errorf("round-tripped histogram = %+v", hs)
	}
	if hs.Buckets[len(hs.Buckets)-1].LENanos != -1 {
		t.Error("last bucket is not the +Inf bucket")
	}
}

func TestReporterEmitsRates(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("work.items").Add(100)
	reg.Gauge("work.inflight").Set(7)
	var mu sync.Mutex
	var buf bytes.Buffer
	rep := &Reporter{
		Registry: reg,
		Interval: 10 * time.Millisecond,
		W: writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(p)
		}),
	}
	stop := rep.Start(context.Background())
	time.Sleep(25 * time.Millisecond)
	reg.Counter("work.items").Add(50)
	stop()
	stop() // idempotent

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "work.items=150") {
		t.Errorf("final line missing updated counter:\n%s", out)
	}
	if !strings.Contains(out, "work.inflight=7") {
		t.Errorf("line missing gauge:\n%s", out)
	}
	if strings.Count(out, "progress:") < 2 {
		t.Errorf("expected at least two progress lines:\n%s", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServeDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo.counter").Add(42)
	reg.Histogram("demo.lat").Observe(3 * time.Millisecond)
	ds, err := ServeDebug("127.0.0.1:0", "obs_test_demo", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ds.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not a snapshot: %v", err)
	}
	if snap.Counters["demo.counter"] != 42 {
		t.Errorf("/metrics counter = %d, want 42", snap.Counters["demo.counter"])
	}
	if snap.Histograms["demo.lat"].Count != 1 {
		t.Error("/metrics missing histogram")
	}

	vars := string(get("/debug/vars"))
	if !strings.Contains(vars, "obs_test_demo") || !strings.Contains(vars, "demo.counter") {
		t.Errorf("/debug/vars missing published registry:\n%.400s", vars)
	}

	if body := string(get("/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ does not look like the pprof index")
	}

	// Re-publishing the same name must not panic and must re-point the var.
	reg2 := NewRegistry()
	reg2.Counter("demo.second").Inc()
	Publish("obs_test_demo", reg2)
	if vars := string(get("/debug/vars")); !strings.Contains(vars, "demo.second") {
		t.Error("re-published registry not visible in /debug/vars")
	}
}

func TestChildCounterFlowsToParent(t *testing.T) {
	reg := NewRegistry()
	shard0 := reg.ChildCounter("shard0.", "zmap.probed")
	shard1 := reg.ChildCounter("shard1.", "zmap.probed")
	shard0.Add(3)
	shard1.Add(4)
	shard1.Inc()

	snap := reg.Snapshot()
	if got := snap.Counters["shard0.zmap.probed"]; got != 3 {
		t.Errorf("shard0 counter = %d, want 3", got)
	}
	if got := snap.Counters["shard1.zmap.probed"]; got != 5 {
		t.Errorf("shard1 counter = %d, want 5", got)
	}
	if got := snap.Counters["zmap.probed"]; got != 8 {
		t.Errorf("parent counter = %d, want per-shard sum 8", got)
	}

	// Writes to the parent stay on the parent.
	reg.Counter("zmap.probed").Inc()
	if got := reg.Counter("zmap.probed").Load(); got != 9 {
		t.Errorf("parent after direct Inc = %d, want 9", got)
	}
	if got := shard0.Load(); got != 3 {
		t.Errorf("child changed by parent write: %d, want 3", got)
	}

	// Same prefix+name resolves to the same child.
	if again := reg.ChildCounter("shard0.", "zmap.probed"); again != shard0 {
		t.Error("ChildCounter did not reuse the registered child")
	}
}

// TestChildCounterPerClass: ClassCounter children are named after their
// class under the total and feed it, like prefixed shard children.
func TestChildCounterPerClass(t *testing.T) {
	reg := NewRegistry()
	reg.ClassCounter("enum.retries", "timeout").Add(2)
	reg.ClassCounter("enum.retries", "reset").Inc()
	if again := reg.ClassCounter("enum.retries", "reset"); again != reg.Counter("enum.retries.reset") {
		t.Error("ClassCounter did not resolve to the registered child")
	}
	c := reg.Snapshot().Counters
	if c["enum.retries.timeout"] != 2 || c["enum.retries.reset"] != 1 || c["enum.retries"] != 3 {
		t.Errorf("per-class counters %v, want timeout 2, reset 1, total 3", c)
	}
	var nilReg *Registry
	nilReg.ClassCounter("enum.retries", "reset").Inc()
}

func TestChildCounterDegenerateForms(t *testing.T) {
	reg := NewRegistry()
	// Empty prefix is the plain counter.
	if reg.ChildCounter("", "plain") != reg.Counter("plain") {
		t.Error("empty prefix should resolve to the plain counter")
	}
	// Nil registry hands out a functional standalone counter.
	var nilReg *Registry
	c := nilReg.ChildCounter("shard0.", "x")
	c.Add(2)
	if c.Load() != 2 {
		t.Error("nil-registry child counter not functional")
	}
}

func TestGaugeSetMax(t *testing.T) {
	g := NewGauge()
	g.SetMax(5)
	if g.Load() != 5 {
		t.Errorf("gauge = %d, want 5", g.Load())
	}
	g.SetMax(3)
	if g.Load() != 5 {
		t.Errorf("SetMax lowered the high-water mark to %d", g.Load())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := int64(0); v <= 1000; v++ {
				g.SetMax(v + int64(i))
			}
		}(i)
	}
	wg.Wait()
	if g.Load() != 1007 {
		t.Errorf("concurrent SetMax = %d, want 1007", g.Load())
	}
}
