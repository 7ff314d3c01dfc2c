package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/worldgen"
)

// withWorld gives cfg explicit world parameters — cfg.Params when already
// set, else worldgen.DefaultParams(cfg.Seed, cfg.Scale) — adjusted by set.
func withWorld(cfg CensusConfig, set func(*worldgen.Params)) CensusConfig {
	p := worldgen.DefaultParams(cfg.Seed, cfg.Scale)
	if cfg.Params != nil {
		p = *cfg.Params
	}
	set(&p)
	cfg.Params = &p
	return cfg
}

// testCensus runs a small end-to-end census: scale 32768 scans ~112K
// addresses holding ~420 FTP servers.
func testCensus(t *testing.T, scale int) (*Census, *Result) {
	t.Helper()
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

func TestCensusEndToEnd(t *testing.T) {
	c, res := testCensus(t, 32768)

	if res.Probed != c.World.ScanSize {
		t.Errorf("probed %d of %d addresses", res.Probed, c.World.ScanSize)
	}
	if len(res.Records) == 0 {
		t.Fatal("no hosts discovered")
	}
	if uint64(len(res.Records)) != res.Responded {
		t.Errorf("records %d != responded %d", len(res.Records), res.Responded)
	}

	tables := res.ComputeTables()

	// The measured funnel must match the generator's ground truth.
	audit := c.World.Audit(1)
	f := tables.Funnel
	if f.OpenPort21 != audit.Open {
		t.Errorf("open: measured %d, truth %d", f.OpenPort21, audit.Open)
	}
	if f.FTPServers != audit.FTP {
		t.Errorf("ftp: measured %d, truth %d", f.FTPServers, audit.FTP)
	}
	// Anonymous measurement is a lower bound: banner opt-outs stop the
	// login attempt on some anonymous-capable hosts (ethics behaviour),
	// so measured ≤ truth, within a modest margin.
	if f.AnonServers > audit.Anonymous {
		t.Errorf("anon: measured %d exceeds truth %d", f.AnonServers, audit.Anonymous)
	}
	if audit.Anonymous > 0 && float64(f.AnonServers) < 0.5*float64(audit.Anonymous) {
		t.Errorf("anon: measured %d far below truth %d", f.AnonServers, audit.Anonymous)
	}

	// FTPS support must be measured on non-anonymous hosts too.
	if tables.FTPS.Supported == 0 {
		t.Error("no FTPS hosts measured")
	}
	ftpsTruth := audit.FTPS
	if tables.FTPS.Supported > ftpsTruth {
		t.Errorf("ftps: measured %d exceeds truth %d", tables.FTPS.Supported, ftpsTruth)
	}

	// PORT validation: home.pl's default stack fails it, so failures
	// must exist and concentrate there.
	if tables.PortBounce.Tested == 0 {
		t.Error("no PORT probes ran")
	}

	if tables.Classification.TotalFTP != f.FTPServers {
		t.Error("classification total mismatch")
	}

	// Rendering must not panic and must carry every section.
	out := tables.Render()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table VI", "Table VIII",
		"Table IX", "Table X", "Table XI", "Table XII", "Table XIII",
		"Section V", "Section VI", "Section VII.B", "Section IX", "Figure 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestTruthOnlyDiscovery: the scanner's 100K+ probes answer from ground
// truth alone; the world materializes exactly the hosts the enumerator
// dialed — one per discovery-responsive address — not the hosts probed.
func TestTruthOnlyDiscovery(t *testing.T) {
	c, res := testCensus(t, 65536)
	if res.Probed <= uint64(len(res.Records)) {
		t.Fatalf("probed %d, records %d; probe volume should dwarf dials",
			res.Probed, len(res.Records))
	}
	if got, want := c.World.MaterializedHosts(), len(res.Records); got != want {
		t.Errorf("materialized %d hosts, want %d (hosts dialed by the enumerator)",
			got, want)
	}
}

func TestCensusDeterministicDiscovery(t *testing.T) {
	_, res1 := testCensus(t, 65536)
	_, res2 := testCensus(t, 65536)
	if len(res1.Records) != len(res2.Records) {
		t.Errorf("same seed found %d vs %d hosts", len(res1.Records), len(res2.Records))
	}
	f1 := res1.ComputeTables().Funnel
	f2 := res2.ComputeTables().Funnel
	if f1 != f2 {
		t.Errorf("funnels diverge: %+v vs %+v", f1, f2)
	}
}

func TestCensusWithLossAndRetries(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 65536, LossRate: 0.2, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	audit := c.World.Audit(1)
	// Retries should recover nearly all hosts despite 20% probe loss.
	if len(res.Records) < audit.Open*9/10 {
		t.Errorf("loss recovery: found %d of %d", len(res.Records), audit.Open)
	}
}

func TestHTTPJoin(t *testing.T) {
	_, res := testCensus(t, 65536)
	m := res.ComputeTables().Malicious
	if m.TotalFTP == 0 || m.HTTPOverlap == 0 {
		t.Fatalf("empty HTTP join: %d of %d FTP hosts serve HTTP", m.HTTPOverlap, m.TotalFTP)
	}
	// Around 65% of FTP hosts also serve HTTP.
	rate := float64(m.HTTPOverlap) / float64(m.TotalFTP)
	if rate < 0.4 || rate > 0.9 {
		t.Errorf("HTTP overlap rate = %.2f, want ≈0.65", rate)
	}
}

// TestCensusCancellation: caller cancellation is graceful truncation, not
// failure — the partial result comes back flagged instead of being thrown
// away (the pre-fix behaviour lost the whole run).
func TestCensusCancellation(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 2048, ScanWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("cancelled census returned error: %v", err)
	}
	if !res.Truncated || res.TruncatedBy != TruncateCanceled {
		t.Errorf("Truncated=%v TruncatedBy=%q, want true/%q",
			res.Truncated, res.TruncatedBy, TruncateCanceled)
	}
	if res.Robustness.Failures[TruncateCanceled] != 1 {
		t.Errorf("robustness missing %q class: %v", TruncateCanceled, res.Robustness.Failures)
	}
}

// TestCensusDeadlineTruncation: an expired deadline mid-run must yield the
// partial dataset — every record drained before the cut, flagged with the
// deadline truncation class — and the tables must still compute.
func TestCensusDeadlineTruncation(t *testing.T) {
	probe := &cancelAfterSink{after: 2}
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		RetainRecords: RetainNone,
		StreamTo:      probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sink stalls the third record until after the deadline, so the
	// deadline deterministically fires mid-run no matter how fast the
	// machine: the run cannot complete before the stall lifts at 100ms,
	// and the deadline expires at 50ms.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Millisecond))
	defer cancel()
	probe.block = make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(probe.block) })

	res, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("deadline-truncated census returned error: %v", err)
	}
	if !res.Truncated || res.TruncatedBy != TruncateDeadline {
		t.Fatalf("Truncated=%v TruncatedBy=%q, want true/%q",
			res.Truncated, res.TruncatedBy, TruncateDeadline)
	}
	if res.Observed != probe.seen {
		t.Errorf("Observed=%d but StreamTo saw %d records", res.Observed, probe.seen)
	}
	if res.Observed != res.Robustness.Records {
		t.Errorf("Observed=%d disagrees with Robustness.Records=%d",
			res.Observed, res.Robustness.Records)
	}
	if res.Robustness.Failures[TruncateDeadline] != 1 {
		t.Errorf("robustness missing %q class: %v", TruncateDeadline, res.Robustness.Failures)
	}
	// The partial ledger still renders.
	if out := res.ComputeTables().Render(); !strings.Contains(out, "Table I") {
		t.Error("partial tables failed to render")
	}
}

// cancelAfterSink passes records through, optionally stalling after a few
// so a surrounding deadline reliably fires mid-drain.
type cancelAfterSink struct {
	after int
	seen  int
	block chan struct{}
}

func (s *cancelAfterSink) Observe(*dataset.HostRecord) error {
	if s.block != nil && s.seen >= s.after {
		<-s.block
	}
	s.seen++
	return nil
}

func (s *cancelAfterSink) Close() error { return nil }

// TestDrainConsistencyOnSinkFailure: a sink failing mid-stream must not
// desynchronize the ledgers — Robustness counts exactly the records the
// sink chain accepted, which is exactly what the aggregator observed, and
// the pipeline still drains to completion instead of deadlocking.
func TestDrainConsistencyOnSinkFailure(t *testing.T) {
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		RetainRecords: RetainNone,
		StreamTo:      &failAfterSink{after: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("Run succeeded despite failing sink")
	}
	if res == nil {
		t.Fatal("Run returned no partial result alongside the sink error")
	}
	if res.Observed != 3 {
		t.Errorf("Observed=%d, want 3 (records accepted before the sink broke)", res.Observed)
	}
	if res.Robustness.Records != res.Observed {
		t.Errorf("Robustness.Records=%d disagrees with Observed=%d",
			res.Robustness.Records, res.Observed)
	}
}

func TestHoneypotStudyViaCore(t *testing.T) {
	r, err := HoneypotStudy(context.Background(), HoneypotStudyConfig{
		Seed: 3, Honeypots: 4, Attackers: 60, Concentrated: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.UniqueScanners != 60 {
		t.Errorf("scanners = %d", r.Summary.UniqueScanners)
	}
	if r.Summary.SpokeFTP == 0 {
		t.Error("no FTP speakers")
	}
	if r.Sessions == 0 {
		t.Error("streamed report recorded no sessions")
	}
	if len(r.Timelines) == 0 {
		t.Error("streamed report has no lure timelines")
	}
}

func TestWriteEvidenceFlowsThrough(t *testing.T) {
	_, res := testCensus(t, 8192)
	writable := 0
	for _, rec := range res.Records {
		if len(rec.WriteEvidence) > 0 {
			writable++
		}
	}
	tables := res.ComputeTables()
	if tables.Malicious.WritableServers != writable {
		t.Errorf("writable: analysis %d vs records %d",
			tables.Malicious.WritableServers, writable)
	}
}

func TestDatasetRoundTripFromCensus(t *testing.T) {
	_, res := testCensus(t, 65536)
	var sb strings.Builder
	w := dataset.NewWriter(&sb)
	for _, rec := range res.Records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	back, err := dataset.ReadAll(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Records) {
		t.Errorf("round trip: %d vs %d", len(back), len(res.Records))
	}
}
