package delta

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

func rec(ip, banner string, anon bool) *dataset.HostRecord {
	return &dataset.HostRecord{IP: ip, PortOpen: true, FTP: true, Banner: banner, AnonymousOK: anon}
}

func TestDiffLedgersSynthetic(t *testing.T) {
	before := []*dataset.HostRecord{
		rec("10.0.0.1", "220 (vsFTPd 2.3.5)", false),          // migrates to 3.0.2
		rec("10.0.0.2", "220 ProFTPD 1.3.5 Server", true),     // unchanged, loses anon
		rec("10.0.0.3", "220 FTP server ready.", false),       // vanishes
		{IP: "10.0.0.9", PortOpen: true, FTP: false},          // shed endpoint: ignored
		rec("10.0.0.4", "220 Pure-FTPd 1.0.36 ready.", false), // gains anon
	}
	after := []*dataset.HostRecord{
		rec("10.0.0.1", "220 (vsFTPd 3.0.2)", false),
		rec("10.0.0.2", "220 ProFTPD 1.3.5 Server", false),
		rec("10.0.0.4", "220 Pure-FTPd 1.0.36 ready.", true),
		rec("10.0.0.5", "220 FTP server ready.", false), // new
	}
	d := DiffLedgers(before, after)

	if d.New != 1 || d.Vanished != 1 || d.Persisted != 3 {
		t.Fatalf("partition = new %d / vanished %d / persisted %d, want 1/1/3", d.New, d.Vanished, d.Persisted)
	}
	if got := d.Flows[Flow{From: "vsFTPd 2.3.5", To: "vsFTPd 3.0.2"}]; got != 1 {
		t.Errorf("migration edge count = %d, want 1", got)
	}
	if got := d.Flows[Flow{From: "ProFTPD 1.3.5", To: "ProFTPD 1.3.5"}]; got != 1 {
		t.Errorf("identity edge count = %d, want 1", got)
	}
	total := 0
	for _, n := range d.Flows {
		total += n
	}
	if total != d.Persisted {
		t.Errorf("flow matrix sums to %d, want persisted %d", total, d.Persisted)
	}
	if d.AnonGained != 1 || d.AnonLost != 1 {
		t.Errorf("anon gained %d / lost %d, want 1/1", d.AnonGained, d.AnonLost)
	}
}

func TestComputeAggregateTrends(t *testing.T) {
	from := &analysis.Snapshot{
		Observed: 100,
		Funnel:   analysis.FunnelSnap{Open: 90, FTP: 80, Anon: 20},
		Classification: analysis.ClassificationSnap{Counts: map[string]analysis.CategoryCount{
			"Hosted":   {Name: "Hosted", All: 40},
			"Embedded": {Name: "Embedded", All: 10},
		}},
	}
	to := &analysis.Snapshot{
		Observed: 110,
		Funnel:   analysis.FunnelSnap{Open: 95, FTP: 88, Anon: 18},
		Classification: analysis.ClassificationSnap{Counts: map[string]analysis.CategoryCount{
			"Hosted":  {Name: "Hosted", All: 44},
			"Generic": {Name: "Generic", All: 5},
		}},
	}
	r := Compute(from, to)
	if r.FTP.Delta() != 8 {
		t.Errorf("FTP delta = %d, want 8", r.FTP.Delta())
	}
	if r.FTP.Pct() != 10 {
		t.Errorf("FTP pct = %v, want 10", r.FTP.Pct())
	}
	if r.Anon.Delta() != -2 {
		t.Errorf("Anon delta = %d, want -2", r.Anon.Delta())
	}
	// Categories present on only one side still appear, zero on the other.
	if tr := r.Categories["Embedded"]; tr.Before != 10 || tr.After != 0 {
		t.Errorf("Embedded trend = %+v, want 10 → 0", tr)
	}
	if tr := r.Categories["Generic"]; tr.Before != 0 || tr.After != 5 {
		t.Errorf("Generic trend = %+v, want 0 → 5", tr)
	}
	out := r.Render()
	for _, want := range []string{"Delta I", "Delta II", "Delta III", "FTP servers", "+8"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if strings.Contains(out, "Delta IV") {
		t.Error("render shows host tables without ledgers")
	}
	if out != r.Render() {
		t.Error("render not deterministic")
	}
}

// censusAt sweeps the standard test world at one epoch and returns the
// snapshot and ledger.
func censusAt(t *testing.T, epoch uint64) (*analysis.Snapshot, []*dataset.HostRecord, *core.Result) {
	t.Helper()
	var ledger bytes.Buffer
	stamp := time.Date(2016, 2, 22, 0, 0, 0, 0, time.UTC)
	params := worldgen.DefaultParams(42, 32768)
	params.Epoch = epoch
	c, err := core.NewCensus(core.CensusConfig{
		Seed:          42,
		Scale:         32768,
		Params:        &params,
		RetainRecords: core.RetainNone,
		StreamTo:      dataset.NewWriterSink(&ledger),
		Now:           func() time.Time { return stamp },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dataset.ReadAll(&ledger)
	if err != nil {
		t.Fatal(err)
	}
	return res.Snapshot(), recs, res
}

// TestDeltaMatchesBruteForce is the acceptance check: the delta engine run
// over two epochs' census outputs must agree exactly with a brute-force
// diff of the two worlds' FTP host sets.
func TestDeltaMatchesBruteForce(t *testing.T) {
	snap0, recs0, _ := censusAt(t, 0)
	snap2, recs2, _ := censusAt(t, 2)

	r := Compute(snap0, snap2)
	r.Hosts = DiffLedgers(recs0, recs2)

	// Brute force over world truth.
	mkWorld := func(epoch uint64) *worldgen.World {
		p := worldgen.DefaultParams(42, 32768)
		p.Epoch = epoch
		w, err := worldgen.New(p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w0, w2 := mkWorld(0), mkWorld(2)
	var wantNew, wantVanished, wantPersisted, ftp0, ftp2 int
	base := uint64(w0.ScanBase)
	for off := uint64(0); off < w0.ScanSize; off++ {
		ip := simnet.IP(base + off)
		t0, ok0 := w0.Truth(ip)
		t2, ok2 := w2.Truth(ip)
		in0 := ok0 && t0.FTP
		in2 := ok2 && t2.FTP
		switch {
		case in0 && in2:
			wantPersisted++
		case in2:
			wantNew++
		case in0:
			wantVanished++
		}
		if in0 {
			ftp0++
		}
		if in2 {
			ftp2++
		}
	}
	if wantNew == 0 || wantVanished == 0 {
		t.Fatal("epochs produced no churn; test vacuous")
	}

	h := r.Hosts
	if h.New != wantNew || h.Vanished != wantVanished || h.Persisted != wantPersisted {
		t.Errorf("ledger diff new/vanished/persisted = %d/%d/%d, brute force says %d/%d/%d",
			h.New, h.Vanished, h.Persisted, wantNew, wantVanished, wantPersisted)
	}
	if r.FTP.Before != ftp0 || r.FTP.After != ftp2 {
		t.Errorf("aggregate FTP trend %d → %d, brute force says %d → %d",
			r.FTP.Before, r.FTP.After, ftp0, ftp2)
	}
	total := 0
	migrated := 0
	for f, n := range h.Flows {
		total += n
		if f.From != f.To {
			migrated += n
		}
	}
	if total != wantPersisted {
		t.Errorf("flow matrix sums to %d, want persisted %d", total, wantPersisted)
	}
	if migrated == 0 {
		t.Error("no version migrations across two epochs with the default upgrade rate")
	}

	out := r.Render()
	for _, want := range []string{"Delta IV", "Delta V", "Persisted", "(unchanged)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
