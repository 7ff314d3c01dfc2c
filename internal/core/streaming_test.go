package core

import (
	"context"
	"reflect"
	"testing"

	"ftpcloud/internal/dataset"
)

// listingProbe is a StreamTo sink that inspects records as they flow by,
// without retaining them.
type listingProbe struct {
	records   int
	withFiles int
	closed    bool
}

func (p *listingProbe) Observe(rec *dataset.HostRecord) error {
	p.records++
	if len(rec.Files) > 0 {
		p.withFiles++
	}
	return nil
}

func (p *listingProbe) Close() error {
	p.closed = true
	return nil
}

// TestStreamingMatchesRetained runs the same world twice — once retaining
// records, once streaming-only — and demands byte-identical table output.
// The world is shared between the runs rather than regenerated: certificate
// DER (and so fingerprints) varies across GeneratePool calls because Go's
// ECDSA signer is intentionally randomized (see internal/certs).
func TestStreamingMatchesRetained(t *testing.T) {
	c, retained := testCensus(t, 32768)

	c.Config.RetainRecords = RetainNone
	streaming, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if streaming.Records != nil {
		t.Errorf("streaming run retained %d records", len(streaming.Records))
	}
	if streaming.Observed != len(retained.Records) {
		t.Errorf("streaming observed %d records, retained run kept %d",
			streaming.Observed, len(retained.Records))
	}

	got := streaming.ComputeTables()
	want := retained.ComputeTables()
	if !reflect.DeepEqual(got, want) {
		t.Error("streaming tables are not deep-equal to retained tables")
	}
	if got.Render() != want.Render() {
		t.Error("streaming table render diverges from retained render")
	}
}

// TestStreamingRetainsNoListings proves the constant-memory claim's
// mechanism: listings flow through the sink chain (a probe sees them)
// but nothing in the Result pins them afterwards.
func TestStreamingRetainsNoListings(t *testing.T) {
	probe := &listingProbe{}
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		RetainRecords: RetainNone,
		StreamTo:      probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !probe.closed {
		t.Error("Run did not close the StreamTo sink")
	}
	if probe.records != res.Observed {
		t.Errorf("probe saw %d records, result observed %d", probe.records, res.Observed)
	}
	if probe.withFiles == 0 {
		t.Fatal("no record carried a file listing — world too small to exercise retention")
	}
	if res.Records != nil {
		t.Error("streaming-only result still retains records")
	}

	tables := res.ComputeTables()
	if tables.Exposure.ExposingServers == 0 {
		t.Error("exposure table empty despite listed files")
	}
	if tables.Exposure.ExposingServers > probe.withFiles {
		t.Errorf("exposing servers %d exceeds servers with listings %d",
			tables.Exposure.ExposingServers, probe.withFiles)
	}
}

// TestStreamToErrorSurfaced: a failing sink must abort the census and
// surface the error.
type failAfterSink struct {
	after int
	seen  int
}

func (s *failAfterSink) Observe(*dataset.HostRecord) error {
	s.seen++
	if s.seen > s.after {
		return errSinkBoom
	}
	return nil
}

func (s *failAfterSink) Close() error { return nil }

var errSinkBoom = &sinkBoomError{}

type sinkBoomError struct{}

func (*sinkBoomError) Error() string { return "sink boom" }

func TestStreamToErrorSurfaced(t *testing.T) {
	c, err := NewCensus(CensusConfig{
		Seed: 7, Scale: 32768,
		RetainRecords: RetainNone,
		StreamTo:      &failAfterSink{after: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded despite failing sink")
	}
}
