package core

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// runWithIdentify reruns the same census (same world — certificates vary
// across world builds, so equivalence must compare runs over one world) with
// the identification stage toggled.
func runWithIdentify(t *testing.T, c *Census, on bool) *Result {
	t.Helper()
	c.Config.Identify = on
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("census run (identify=%v): %v", on, err)
	}
	return res
}

// truthCounts tallies the world's ground truth: FTP hosts and open non-FTP
// endpoints in the scanned range.
func truthCounts(w *worldgen.World) (ftp, nonFTP int) {
	base := uint64(w.ScanBase)
	for off := uint64(0); off < w.ScanSize; off++ {
		truth, ok := w.Truth(simnet.IP(base + off))
		if !ok {
			continue
		}
		if truth.FTP {
			ftp++
		}
		if truth.NonFTPOpen {
			nonFTP++
		}
	}
	return ftp, nonFTP
}

// acceptCounter wraps the world's HostProvider and counts the control
// connections (port 21) each host serves. PortOpen is delegated so the probe
// fast path is unchanged.
type acceptCounter struct {
	world *worldgen.World
	mu    sync.Mutex
	n     map[simnet.IP]int
}

func (a *acceptCounter) PortOpen(ip simnet.IP, port uint16) bool { return a.world.PortOpen(ip, port) }

func (a *acceptCounter) Lookup(ip simnet.IP) simnet.Host {
	h := a.world.Lookup(ip)
	if h == nil {
		return nil
	}
	return countedHost{Host: h, ip: ip, a: a}
}

// counts returns a copy of the per-host accept counts.
func (a *acceptCounter) counts() map[simnet.IP]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[simnet.IP]int, len(a.n))
	for ip, n := range a.n {
		out[ip] = n
	}
	return out
}

type countedHost struct {
	simnet.Host
	ip simnet.IP
	a  *acceptCounter
}

func (h countedHost) Handler(port uint16) simnet.Handler {
	inner := h.Host.Handler(port)
	if inner == nil || port != 21 {
		return inner
	}
	return simnet.HandlerFunc(func(nw *simnet.Network, conn net.Conn) {
		h.a.mu.Lock()
		h.a.n[h.ip]++
		h.a.mu.Unlock()
		inner.ServeConn(nw, conn)
	})
}

// TestIdentifyPureFTPByteIdentical: on a world where every open endpoint is
// FTP, the three-stage funnel is a pure pass-through — the rendered paper
// tables, the robustness ledger, and the observed count are byte-identical
// to the pre-funnel two-stage pipeline, and the shed ledger stays empty.
func TestIdentifyPureFTPByteIdentical(t *testing.T) {
	p := worldgen.DefaultParams(7, 131072)
	p.FTPRateOfOpen = 1 // every open port speaks FTP
	c, err := NewCensus(CensusConfig{
		Seed:         7,
		Scale:        131072,
		Params:       &p,
		IdentifyWait: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := runWithIdentify(t, c, false)
	funnel := runWithIdentify(t, c, true)

	lt, ft := legacy.ComputeTables(), funnel.ComputeTables()
	if lt.Render() != ft.Render() {
		t.Error("identify on/off render different paper tables on a pure-FTP world")
	}
	if ft.RenderFull() != ft.Render() {
		t.Error("empty shed ledger still changed RenderFull output")
	}
	if !reflect.DeepEqual(legacy.Robustness, funnel.Robustness) {
		t.Errorf("robustness diverges:\n legacy %+v\n funnel %+v", legacy.Robustness, funnel.Robustness)
	}
	if legacy.Observed != funnel.Observed {
		t.Errorf("observed %d with identify, %d without", funnel.Observed, legacy.Observed)
	}
	if ft.Unexpected.Total != 0 {
		t.Errorf("pure-FTP world shed %d endpoints", ft.Unexpected.Total)
	}
	for _, rec := range funnel.Records {
		if rec.Service != "" {
			t.Fatalf("%s: pure-FTP record carries service %q", rec.IP, rec.Service)
		}
	}
}

// TestIdentifyMixedWorldSheds: the acceptance property of the staged
// funnel — on a mixed world every non-FTP endpoint is shed after exactly one
// identification round-trip (one dial per discovered endpoint, counted by
// identify.*), every true FTP endpoint is enumerated on that same connection
// (each host serves exactly one control connection), and the paper tables
// come out byte-identical to the two-stage pipeline that burned a full
// enumeration slot on every service host.
func TestIdentifyMixedWorldSheds(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(withWorld(CensusConfig{
		Seed:         7,
		Scale:        262144,
		IdentifyWait: 150 * time.Millisecond,
		EnumTimeout:  time.Second, // keep the legacy run's silent-host timeouts short
		Metrics:      reg,
	}, func(p *worldgen.Params) { p.ServiceMix = worldgen.DefaultServiceMix() }))
	if err != nil {
		t.Fatal(err)
	}
	ftpHosts, nonFTP := truthCounts(c.World)
	if nonFTP == 0 {
		t.Fatal("mixed world generated no service hosts — test is vacuous")
	}

	legacy := runWithIdentify(t, c, false)
	accepts := &acceptCounter{world: c.World, n: map[simnet.IP]int{}}
	c.Network.SetProvider(accepts)
	before := reg.Snapshot()
	funnel := runWithIdentify(t, c, true)
	delta := reg.Snapshot().Sub(before)

	// One control connection per endpoint: identification's connection
	// is the one FTP hosts are enumerated on.
	served := accepts.counts()
	total := 0
	for _, n := range served {
		total += n
	}
	if got := delta.Counters["identify.dials"]; uint64(total) != got {
		t.Errorf("hosts served %d control connections for %d identify dials", total, got)
	}
	base := uint64(c.World.ScanBase)
	for off := uint64(0); off < c.World.ScanSize; off++ {
		ip := simnet.IP(base + off)
		if truth, ok := c.World.Truth(ip); ok && truth.FTP && served[ip] != 1 {
			t.Errorf("%s: FTP host served %d control connections, want 1", ip, served[ip])
		}
	}
	if h, p := delta.Counters["identify.handoffs"], delta.Counters["identify.passed"]; h != p {
		t.Errorf("identify.handoffs = %d, want every passed endpoint (%d) handed off", h, p)
	}

	// One identification round-trip per discovered endpoint, no retries.
	open := uint64(ftpHosts + nonFTP)
	if got := delta.Counters["identify.dials"]; got != open {
		t.Errorf("identify.dials = %d, want exactly one per endpoint (%d)", got, open)
	}
	if got := delta.Counters["identify.passed"]; got != uint64(ftpHosts) {
		t.Errorf("identify.passed = %d, want %d FTP hosts", got, ftpHosts)
	}
	if got := delta.Counters["identify.shed"]; got != uint64(nonFTP) {
		t.Errorf("identify.shed = %d, want all %d service hosts", got, nonFTP)
	}
	if got := delta.Counters["identify.errors"]; got != 0 {
		t.Errorf("benign mixed world produced %d identify errors", got)
	}

	// The shed ledger accounts for every service host, by protocol.
	ft := funnel.ComputeTables()
	if ft.Unexpected.Total != nonFTP {
		t.Errorf("unexpected-services ledger holds %d endpoints, want %d", ft.Unexpected.Total, nonFTP)
	}
	sum := 0
	for _, s := range ft.Unexpected.Services {
		if s.Protocol == "ftp" || s.Protocol == "" {
			t.Errorf("shed ledger carries protocol %q", s.Protocol)
		}
		sum += s.Count
	}
	if sum != ft.Unexpected.Total {
		t.Errorf("ledger rows sum to %d, total %d", sum, ft.Unexpected.Total)
	}

	// Every record is consistently labeled: FTP records never carry a
	// service, shed records always do.
	for _, rec := range funnel.Records {
		if rec.FTP && rec.Service != "" {
			t.Errorf("%s: FTP record carries service %q", rec.IP, rec.Service)
		}
		if !rec.FTP && rec.Service == "" {
			t.Errorf("%s: shed record missing its sniffed service", rec.IP)
		}
	}

	// Paper tables are unchanged by how non-FTP endpoints were disposed
	// of: the funnel's open/FTP counts match, and every FTP-gated table is
	// fed identical records.
	if legacy.ComputeTables().Render() != ft.Render() {
		t.Error("identify on/off render different paper tables on a mixed world")
	}
	if legacy.Observed != funnel.Observed {
		t.Errorf("observed %d with identify, %d without — both pipelines must record every open endpoint",
			funnel.Observed, legacy.Observed)
	}
}

// TestIdentifyShardedUnexpectedMerge: N shard pipelines each run their own
// identifying worker pool, and the merged unexpected-services table (and full
// report, and the disclosure notices) is byte-identical to the
// single-pipeline run — the shed ledger is an additive fold with
// deterministic tie-breaking like every other accumulator. Per-shard identify counters must sum to the merged view.
func TestIdentifyShardedUnexpectedMerge(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(withWorld(CensusConfig{
		Seed:         7,
		Scale:        262144,
		Identify:     true,
		IdentifyWait: 150 * time.Millisecond,
		Metrics:      reg,
	}, func(p *worldgen.Params) { p.ServiceMix = worldgen.DefaultServiceMix() }))
	if err != nil {
		t.Fatal(err)
	}
	single, wantNotices := noticesOver(t, c, 1)
	st := single.ComputeTables()
	if st.Unexpected.Total == 0 {
		t.Fatal("single-pipeline run shed nothing — merge test is vacuous")
	}
	if wantNotices == "" {
		t.Fatal("single-pipeline run produced no notices — comparison is vacuous")
	}
	want := st.RenderFull()

	for _, shards := range []int{2, 4} {
		before := reg.Snapshot()
		res, notices := noticesOver(t, c, shards)
		delta := reg.Snapshot().Sub(before)
		if notices != wantNotices {
			t.Errorf("%d shards: disclosure notices diverge from single-pipeline run (%d vs %d bytes)",
				shards, len(notices), len(wantNotices))
		}
		rt := res.ComputeTables()
		if !reflect.DeepEqual(rt.Unexpected, st.Unexpected) {
			t.Errorf("%d shards: unexpected-services table diverges:\n got %+v\nwant %+v",
				shards, rt.Unexpected, st.Unexpected)
		}
		if got := rt.RenderFull(); got != want {
			t.Errorf("%d shards: full report diverges from single-pipeline run (%d vs %d bytes)",
				shards, len(got), len(want))
		}
		var perShard uint64
		for i := 0; i < shards; i++ {
			perShard += delta.Counters[fmt.Sprintf("shard%d.identify.shed", i)]
		}
		if merged := delta.Counters["identify.shed"]; perShard != merged || merged != uint64(st.Unexpected.Total) {
			t.Errorf("%d shards: per-shard shed sums to %d, merged %d, ledger %d",
				shards, perShard, merged, st.Unexpected.Total)
		}
	}
}

// TestIdentifyChaosHostileMixedCensus: with transport faults on FTP and
// service hosts alike, the staged funnel still accounts for every endpoint
// exactly once — dials balance against passed+shed, the drain records one
// ledger entry per endpoint, and the run neither hangs nor double-counts.
// Faulted FTP hosts may legally shed (a pre-banner reset looks dead from one
// connection); what is not legal is losing or duplicating an endpoint.
func TestIdentifyChaosHostileMixedCensus(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(withWorld(CensusConfig{
		Seed:         7,
		Scale:        262144,
		Identify:     true,
		IdentifyWait: 300 * time.Millisecond,
		EnumTimeout:  1500 * time.Millisecond,
		HostBudget:   6 * time.Second,
		Metrics:      reg,
	}, func(p *worldgen.Params) {
		p.ServiceMix = worldgen.DefaultServiceMix()
		p.HostileRate = 0.4
		p.FaultMix = worldgen.DefaultFaultMix()
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	dials := snap.Counters["identify.dials"]
	passed := snap.Counters["identify.passed"]
	shed := snap.Counters["identify.shed"]
	if dials == 0 || passed == 0 || shed == 0 {
		t.Fatalf("hostile mixed census exercised nothing: dials=%d passed=%d shed=%d", dials, passed, shed)
	}
	if passed+shed != dials {
		t.Errorf("identification ledger out of balance: %d passed + %d shed != %d dials", passed, shed, dials)
	}
	if uint64(res.Observed) != dials {
		t.Errorf("observed %d records for %d identified endpoints — every endpoint must yield exactly one record",
			res.Observed, dials)
	}
	tables := res.ComputeTables()
	if tables.Unexpected.Total != int(shed) {
		t.Errorf("shed ledger holds %d, identify.shed counted %d", tables.Unexpected.Total, shed)
	}
	if res.Robustness.Records != res.Observed {
		t.Errorf("robustness records %d != observed %d", res.Robustness.Records, res.Observed)
	}
}
