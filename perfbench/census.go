package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// Both census workloads measure the world of seed baseSeed; the benchmark
// seed picks the scan order over it. Worlds differ in host count and in the
// trees their hosts serve, so runs on different worlds differ in time and
// memory by more than the regression bounds. The tables do not depend on
// the scan order, so every benchmark seed must reproduce the world's one
// golden digest.
func censusWorld(scale int) *worldgen.Params {
	p := worldgen.DefaultParams(baseSeed, scale)
	return &p
}

// runCensusBenign is the CPU-heavy census: the calibrated pure-FTP world
// with library defaults (32 enumerator workers, TLS and PORT probes on,
// default transport retries), one pipeline.
func runCensusBenign(ctx context.Context, seed uint64, traced bool, work string) (*sample, error) {
	return runCensus(ctx, "census-benign", core.CensusConfig{
		Seed:   seed,
		Scale:  2048,
		Params: censusWorld(2048),
	}, 1, traced, work)
}

// runCensusFunnel is the latency-bound census: a mixed world whose non-FTP
// responders the identify stage sheds, 5–150 ms per dial, two shards merged
// through aggregator snapshots.
func runCensusFunnel(ctx context.Context, seed uint64, traced bool, work string) (*sample, error) {
	world := censusWorld(16384)
	world.ServiceMix = worldgen.DefaultServiceMix()
	return runCensus(ctx, "census-funnel", core.CensusConfig{
		Seed:             seed,
		Scale:            16384,
		Params:           world,
		Identify:         true,
		IdentifyWait:     500 * time.Millisecond,
		RealisticLatency: true,
	}, 2, traced, work)
}

// timedSink times the calls the census makes into the ledger sink.
type timedSink struct {
	dataset.Sink
	ns, n atomic.Int64
}

func (t *timedSink) Observe(rec *dataset.HostRecord) error {
	start := time.Now()
	err := t.Sink.Observe(rec)
	t.ns.Add(int64(time.Since(start)))
	t.n.Add(1)
	return err
}

func runCensus(ctx context.Context, name string, cfg core.CensusConfig, shards int, traced bool, work string) (*sample, error) {
	ledger := filepath.Join(work, name+".jsonl")
	f, err := os.Create(ledger)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sink := &timedSink{Sink: dataset.NewWriterSink(f)}
	cfg.StreamTo = sink.Sink
	if traced {
		cfg.StreamTo = sink
	}
	cfg.RetainRecords = core.RetainNone
	cfg.Metrics = reg

	var sc *core.ShardedCensus
	setup, err := setUp(func() (err error) {
		sc, err = core.NewShardedCensus(cfg, shards)
		return err
	}, func() { sc = nil })
	if err != nil {
		f.Close()
		return nil, err
	}
	world := sc.Census.World
	var tr *tracer
	if traced {
		tr = newTracer(censusClient, false)
		sc.Census.Network.SetProvider(tr.wrap(world))
	}

	ph := startPhase()
	res, err := sc.Run(ctx)
	if err != nil {
		return nil, err
	}
	runDone := time.Now()
	tables := res.ComputeTables()
	tablesDone := time.Now()
	rendered := tables.RenderFull()
	renderDone := time.Now()
	m := ph.stop()
	rss := peakRSSMB()

	s := &sample{WorldSeed: baseSeed, E2E: map[string]float64{}}
	sum := sha256.Sum256([]byte(rendered))
	s.Golden = &golden{TablesSHA256: hex.EncodeToString(sum[:])}
	if res.Truncated {
		s.problem("census truncated by %s", res.TruncatedBy)
	}
	if res.Observed != res.Robustness.Records {
		s.problem("observed %d records but robustness ledger holds %d", res.Observed, res.Robustness.Records)
	}
	recs, err := readLedger(ledger)
	if err != nil {
		return nil, err
	}
	if len(recs) != res.Observed {
		s.problem("ledger holds %d records, census observed %d", len(recs), res.Observed)
	}

	// A responsive endpoint fails when it has no record, or when it spoke
	// FTP and its record is partial or carries a failure class. Non-FTP
	// responders that close after the banner are correct outcomes.
	var failed, retries, usefulRetries int
	if int(res.Responded) > len(recs) {
		failed = int(res.Responded) - len(recs)
	}
	for _, r := range recs {
		if r.FTP && (r.Partial || r.FailureClass != "") {
			failed++
		}
		retries += r.Retries
		if r.FailureClass == "" {
			usefulRetries += r.Retries
		}
	}
	study := m.wall.Seconds()
	s.Attempted, s.Failed = int64(res.Responded), int64(failed)
	s.E2E["setup_s"] = setup
	s.E2E["study_s"] = study
	s.E2E["sessions_per_s"] = float64(res.Observed) / study
	s.E2E["cpu_s"] = m.cpu.Seconds()
	s.E2E["peak_rss_mb"] = rss
	s.E2E["success_ratio"] = 1 - ratio(float64(failed), float64(res.Responded))
	if !traced {
		return s, nil
	}

	// Per-layer metrics: counts and histograms from the program's own
	// registry, times from the spans and wrappers around each layer.
	l := zeroLayers()
	snap := reg.Snapshot()
	c := snap.Counters
	l["worldgen.lookups"] = float64(tr.lookups.Load())
	l["worldgen.lookup_s"] = float64(tr.lookupNS.Load()) / 1e9
	l["simnet.probes"] = float64(c["simnet.probes"])
	l["simnet.dials"] = float64(c["simnet.dials"])
	l["simnet.dials_failed"] = float64(c["simnet.dials_failed"])
	l["simnet.dials_per_record"] = ratio(float64(c["simnet.dials"]), float64(res.Observed))
	l["zmap.scan_s"] = res.ScanDuration.Seconds()
	l["zmap.probes_per_s"] = ratio(float64(res.Probed), res.ScanDuration.Seconds())
	l["zmap.responded"] = float64(res.Responded)
	l["identify.dials"] = float64(c["identify.dials"])
	l["identify.shed_ratio"] = ratio(float64(c["identify.shed"]), float64(c["identify.dials"]))
	l["identify.latency_p50_ms"] = quantileMS(snap.Histograms["identify.latency"], 0.50)
	l["identify.latency_p99_ms"] = quantileMS(snap.Histograms["identify.latency"], 0.99)
	l["enum.hosts"] = float64(c["enum.hosts"])
	l["enum.host_p50_ms"] = quantileMS(snap.Histograms["enum.host_seconds"], 0.50)
	l["enum.host_p99_ms"] = quantileMS(snap.Histograms["enum.host_seconds"], 0.99)
	l["enum.retries"] = float64(retries)
	l["enum.retry_useful_ratio"] = ratio(float64(usefulRetries), float64(retries))
	l["enum.fail.eof"] = float64(res.Robustness.Failures["eof"])
	l["enum.fail.protocol"] = float64(res.Robustness.Failures["protocol"])
	for _, h := range []string{"dial", "banner", "list", "retr", "cmd"} {
		l["enum."+h+"_p50_ms"] = quantileMS(snap.Histograms["enum.latency."+h], 0.50)
	}
	spans := tr.Spans()
	spanLayers(l, spans, func(id uint64) bool {
		t, ok := world.Truth(simnet.IP(id))
		return ok && t.FTP
	})
	fold, err := replayFold(world, recs)
	if err != nil {
		return nil, err
	}
	l["analysis.fold_us_per_record"] = fold
	l["analysis.tables_s"] = tablesDone.Sub(runDone).Seconds()
	l["dataset.sink_us_per_record"] = ratio(float64(sink.ns.Load())/1e3, float64(sink.n.Load()))
	if fi, err := os.Stat(ledger); err == nil {
		l["dataset.mb_written"] = float64(fi.Size()) / 1e6
	}
	l["report.render_s"] = renderDone.Sub(tablesDone).Seconds()
	m.runtimeLayers(l)
	s.Layers = l
	return s, writeSpans(filepath.Join(work, name+".spans.tsv"), spans)
}

// censusClient tells identify-stage connections from enumerator ones: the
// identify workers' source block sits above the enumerator fleets'.
func censusClient(src simnet.IP) connKind {
	if src >= core.IdentifyBase {
		return connIdentify
	}
	return connEnum
}

func readLedger(path string) ([]*dataset.HostRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := dataset.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("reading ledger: %w", err)
	}
	return recs, nil
}

// replayFold folds the ledger through a fresh aggregator, joined to the
// world's web-scan truth the way the census joins it, and returns the fold
// cost per record in microseconds.
func replayFold(world *worldgen.World, recs []*dataset.HostRecord) (float64, error) {
	agg := analysis.NewAggregator(world.ASDB, func(r *analysis.Record) (analysis.HTTPInfo, bool) {
		ip, ok := r.IPNum()
		if !ok {
			return analysis.HTTPInfo{}, false
		}
		t, ok := world.Truth(ip)
		if !ok || !t.FTP {
			return analysis.HTTPInfo{}, false
		}
		return analysis.HTTPInfo{HTTP: t.HTTP, Scripting: t.Scripting}, true
	})
	start := time.Now()
	for _, r := range recs {
		if err := agg.Observe(r); err != nil {
			return 0, fmt.Errorf("replaying ledger: %w", err)
		}
	}
	return ratio(float64(time.Since(start))/1e3, float64(len(recs))), nil
}
