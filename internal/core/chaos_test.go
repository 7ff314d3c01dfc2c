package core

import (
	"context"
	"testing"
	"time"

	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/worldgen"
)

// chaosCensus runs a census over a fully or partially hostile world with
// short enumerator budgets so fault paths trigger quickly.
func chaosCensus(t *testing.T, rate float64, scale int) (*Census, *Result) {
	t.Helper()
	c, err := NewCensus(withWorld(CensusConfig{
		Seed:        7,
		Scale:       scale,
		EnumTimeout: 700 * time.Millisecond,
		HostBudget:  3 * time.Second,
	}, func(p *worldgen.Params) {
		p.HostileRate = rate
		p.FaultMix = worldgen.DefaultFaultMix()
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestChaosCensusDropsNoHosts: with every FTP host hostile, the census must
// still terminate and account for every responsive address — each one
// yields a record (possibly partial, possibly an outright classified
// failure), never a silent drop or a hang.
func TestChaosCensusDropsNoHosts(t *testing.T) {
	_, res := chaosCensus(t, 1.0, 131072)

	if res.Observed == 0 {
		t.Fatal("hostile census observed no hosts")
	}
	if uint64(res.Observed) != res.Responded {
		t.Fatalf("observed %d records for %d responsive hosts — hosts dropped silently",
			res.Observed, res.Responded)
	}

	r := res.Robustness
	if r.Partial == 0 {
		t.Error("no partial records in a fully hostile world")
	}
	if len(r.Failures) < 3 {
		t.Errorf("failure classes seen: %v, want at least 3 distinct classes", r.Failures)
	}

	// Degradation invariant: a partial record always names its failure.
	for _, rec := range res.Records {
		if rec.Partial && rec.FailureClass == "" {
			t.Errorf("%s: partial record without a failure class", rec.IP)
		}
	}
}

// TestChaosMixedWorldStillAnalyzes: at a realistic hostile fraction the
// benign majority must still produce the analysis tables while the hostile
// tail shows up in the robustness counters.
func TestChaosMixedWorldStillAnalyzes(t *testing.T) {
	_, res := chaosCensus(t, 0.3, 131072)

	if uint64(res.Observed) != res.Responded {
		t.Fatalf("observed %d != responded %d", res.Observed, res.Responded)
	}
	r := res.Robustness
	if r.Partial == 0 && len(r.Failures) == 0 {
		t.Error("30%% hostile world produced no fault evidence")
	}
	if r.Partial >= res.Observed {
		t.Errorf("every record partial (%d of %d) — benign majority lost",
			r.Partial, res.Observed)
	}

	tables := res.ComputeTables()
	if tables.Funnel.FTPServers == 0 {
		t.Error("no FTP servers measured in mixed world")
	}
	if tables.Funnel.AnonServers == 0 {
		t.Error("no anonymous servers measured in mixed world")
	}
}

// TestBenignCensusHasQuietCounters: with Params.HostileRate zero the degradation
// layer must stay out of the way — no partial records, no skipped subtrees,
// no fault evidence on any host that spoke FTP.
func TestBenignCensusHasQuietCounters(t *testing.T) {
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 131072})
	if err != nil {
		t.Fatal(err)
	}
	if c.Network.Faults != nil {
		t.Error("benign census wired a fault injector")
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Robustness
	if r.Partial != 0 || r.SkippedDirs != 0 {
		t.Errorf("benign world shows degradation: %+v", r)
	}
	if r.DataBytes == 0 {
		t.Error("no data-channel bytes accounted")
	}
	// Non-FTP hosts that close silently or spew junk banners are honestly
	// classified (eof/protocol), so Failures need not be empty — but no
	// host that actually spoke FTP may carry fault evidence.
	for _, rec := range res.Records {
		if rec.FTP && (rec.Partial || rec.FailureClass != "") {
			t.Errorf("%s: benign FTP host carries fault evidence %q", rec.IP, rec.FailureClass)
		}
	}
}

// TestBenignCensusSpendsNoRetries: in a benign world nothing is transient.
// The eof and protocol failures there are port-21 responders that hang up
// or speak another protocol — answers about the host, not faults — so the
// default retry policy spends nothing on them, and none of them spoke FTP.
func TestBenignCensusSpendsNoRetries(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(CensusConfig{Seed: 7, Scale: 262144, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Robustness.Retries != 0 {
		t.Errorf("benign census spent %d retries (failures %v)", res.Robustness.Retries, res.Robustness.Failures)
	}
	if got, ok := reg.Snapshot().Counters["enum.retries"]; !ok || got != 0 {
		t.Errorf("enum.retries = %d (registered %v), want a registered 0", got, ok)
	}
	answers := 0
	for _, rec := range res.Records {
		switch rec.FailureClass {
		case enumerator.FailEOF, enumerator.FailProtocol:
			answers++
			if rec.FTP {
				t.Errorf("%s: %s failure on a host that spoke FTP", rec.IP, rec.FailureClass)
			}
		}
	}
	if answers == 0 {
		t.Error("no eof/protocol responders in the benign world; the check above is vacuous")
	}
}

// TestHostileCensusStillRetriesTransientFaults: retry scoping must not
// switch retries off. In the hostile world the transient banner fault is a
// dripped banner outlasting the per-operation timeout; rst and latency
// hosts ride along (their resets land after the banner, and connect
// latency delays a dial without failing it). Each retry is charged to a
// transient class.
func TestHostileCensusStillRetriesTransientFaults(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewCensus(withWorld(CensusConfig{
		Seed:        7,
		Scale:       131072,
		EnumTimeout: 10 * time.Millisecond,
		HostBudget:  3 * time.Second,
		Metrics:     reg,
	}, func(p *worldgen.Params) {
		p.HostileRate = 1
		p.FaultMix = worldgen.FaultMix{Latency: 1, Reset: 1, Drip: 1}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Robustness.Retries == 0 {
		t.Fatalf("hostile census recorded no retries (failures %v)", res.Robustness.Failures)
	}
	counters := reg.Snapshot().Counters
	if got := counters["enum.retries"]; got != uint64(res.Robustness.Retries) {
		t.Errorf("enum.retries = %d, ledger retries %d", got, res.Robustness.Retries)
	}
	if got := counters["enum.retries.timeout"] + counters["enum.retries.reset"] + counters["enum.retries.connect"]; got != counters["enum.retries"] {
		t.Errorf("per-class retries sum to %d, total %d", got, counters["enum.retries"])
	}
}
