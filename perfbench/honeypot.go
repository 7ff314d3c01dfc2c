package main

import (
	"context"
	"path/filepath"
	"time"

	"ftpcloud/internal/attacker"
	"ftpcloud/internal/core"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/honeypot"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/report"
	"ftpcloud/internal/simnet"
)

// The honeypot campaign: the composition core.HoneypotStudy runs, built
// from its public parts so each layer can be timed from outside. Attackers
// reach the honeypots over 5–150 ms links with campaignConcurrency sessions
// in flight, which keeps a fifth of two CPUs busy, so the campaign's time
// is set by the links and the in-flight cap. With as many sessions in
// flight as CPUs the campaign is CPU-bound, and on a shared machine its
// time then follows the CPUs' speed, which drifts by more than any
// regression bound from one minute to the next.
const (
	campaignHoneypots   = 100
	campaignBots        = 5000
	campaignSessions    = 25_000
	campaignConcurrency = 400
	// fleetSeeds is how many fleet and bot-mix seeds the benchmark seed
	// maps onto; the golden file holds the counts of each.
	fleetSeeds = 16
)

// runHoneypot is the write-heavy workload: attacker sessions upload,
// delete, create directories, flood credentials and try PORT bounces
// against the honeypots' ftpservers. It bypasses discovery, identify, the
// enumerator, the analysis fold and the world generator.
func runHoneypot(ctx context.Context, seed uint64, traced bool, work string) (*sample, error) {
	seed = baseSeed + seed%fleetSeeds
	reg := obs.NewRegistry()
	clock := honeypot.SimClock(time.Unix(1_450_000_000, 0), 250*time.Millisecond)

	var (
		provider *simnet.StaticProvider
		acc      *honeypot.Accumulator
		dep      *honeypot.Deployment
		bots     []attacker.Bot
	)
	setup, err := setUp(func() (err error) {
		provider = simnet.NewStaticProvider()
		acc = honeypot.NewAccumulator()
		dep, err = honeypot.DeployFleet(provider, honeypot.FleetConfig{
			Base:    core.HoneypotBase,
			Count:   campaignHoneypots,
			Seed:    seed,
			Acc:     acc,
			Now:     clock,
			Metrics: reg,
		})
		bots = attacker.DefaultMix(campaignBots, seed, 0.30)
		return err
	}, func() { provider, acc, dep, bots = nil, nil, nil, nil })
	if err != nil {
		return nil, err
	}

	var hosts simnet.HostProvider = provider
	var tr *tracer
	if traced {
		tr = newTracer(nil, true)
		hosts = tr.wrap(provider)
	}
	nw := simnet.NewNetwork(hosts)
	nw.BindMetrics(reg)
	nw.Latency = linkLatency(seed)
	fleet := &attacker.Fleet{
		Network:      nw,
		Bots:         bots,
		Targets:      dep.IPs,
		BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
		Concurrency:  campaignConcurrency,
		Sessions:     campaignSessions,
		Now:          clock,
		Metrics:      reg,
	}

	ph := startPhase()
	stats := fleet.Run(ctx)
	fleetDone := time.Now()
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	quiesced := acc.Quiesce(qctx, uint64(stats.Sessions))
	cancel()
	quiesceDone := time.Now()
	rep := acc.Report()
	reportDone := time.Now()
	rendered := report.Honeypot(rep)
	renderDone := time.Now()
	m := ph.stop()
	rss := peakRSSMB()

	s := &sample{WorldSeed: seed, E2E: map[string]float64{}}
	sum := rep.Summary
	s.Golden = &golden{
		Sessions:        stats.Sessions,
		Errors:          stats.Errors,
		UniqueScanners:  sum.UniqueScanners,
		SpokeFTP:        sum.SpokeFTP,
		CredentialPairs: sum.CredentialPairs,
		Uploads:         sum.Uploads,
		AnonymousLogins: sum.AnonymousLogins,
	}
	if stats.Sessions != campaignSessions {
		s.problem("campaign ran %d of %d sessions", stats.Sessions, campaignSessions)
	}
	if !quiesced {
		s.problem("accumulator did not quiesce: %d of %d sessions closed", acc.Closed(), stats.Sessions)
	}
	if rendered == "" {
		s.problem("empty honeypot report")
	}
	study := m.wall.Seconds()
	s.Attempted = campaignSessions
	s.Failed = int64(campaignSessions - stats.Sessions)
	s.E2E["setup_s"] = setup
	s.E2E["study_s"] = study
	s.E2E["sessions_per_s"] = float64(stats.Sessions) / study
	s.E2E["cpu_s"] = m.cpu.Seconds()
	s.E2E["peak_rss_mb"] = rss
	s.E2E["success_ratio"] = 1 - ratio(float64(stats.Errors), float64(stats.Sessions))
	if !traced {
		return s, nil
	}

	l := zeroLayers()
	snap := reg.Snapshot()
	c := snap.Counters
	l["simnet.probes"] = float64(c["simnet.probes"])
	l["simnet.dials"] = float64(c["simnet.dials"])
	l["simnet.dials_failed"] = float64(c["simnet.dials_failed"])
	l["simnet.dials_per_record"] = ratio(float64(c["simnet.dials"]), float64(stats.Sessions))
	spans := tr.Spans()
	spanLayers(l, spans, func(uint64) bool { return true })
	l["report.render_s"] = renderDone.Sub(reportDone).Seconds()
	l["attacker.sessions"] = float64(c["attacker.sessions"])
	l["attacker.errors"] = float64(c["attacker.errors"])
	l["attacker.inflight_peak"] = float64(snap.Gauges["attacker.inflight_peak"])
	l["honeypot.events_per_session"] = ratio(float64(rep.Events), float64(rep.Sessions))
	l["honeypot.quiesce_s"] = quiesceDone.Sub(fleetDone).Seconds()
	l["honeypot.report_s"] = reportDone.Sub(quiesceDone).Seconds()
	m.runtimeLayers(l)
	s.Layers = l
	return s, writeSpans(filepath.Join(work, "honeypot-campaign.spans.tsv"), spans)
}

// linkLatency is the connection-setup delay between an attacker and a
// honeypot: 5–150 ms, fixed per address pair by the fleet seed, the range
// worldgen's realistic latency gives census dials.
func linkLatency(seed uint64) func(src, dst simnet.IP) time.Duration {
	return func(src, dst simnet.IP) time.Duration {
		x := seed ^ uint64(src)<<32 ^ uint64(dst)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		return 5*time.Millisecond + time.Duration(x%145)*time.Millisecond
	}
}
