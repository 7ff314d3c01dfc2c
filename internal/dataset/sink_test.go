package dataset

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestWriterSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf)
	for i := 0; i < 3; i++ {
		if err := s.Observe(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].IP != "10.1.2.3" {
		t.Fatalf("round trip: %d records", len(recs))
	}
}

type closeTracker struct {
	strings.Builder
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return nil
}

func TestWriterSinkClosesCloser(t *testing.T) {
	var ct closeTracker
	s := NewWriterSink(&ct)
	if err := s.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !ct.closed {
		t.Error("underlying closer not closed")
	}
	if !strings.Contains(ct.String(), `"10.1.2.3"`) {
		t.Error("buffer not flushed before close")
	}
}

func TestCollectorAndCounter(t *testing.T) {
	var coll Collector
	cnt := &Counter{Next: &coll}
	for i := 0; i < 5; i++ {
		if err := cnt.Observe(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if cnt.Count() != 5 || len(coll.Records) != 5 {
		t.Errorf("counter %d, collector %d", cnt.Count(), len(coll.Records))
	}
	if err := cnt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTeeForwardsFlush: a tee of a buffering ledger and a sink without a
// Flush method must still flush the ledger — the census checkpoint flushes
// its stream sink at quiescence, and a tee that swallowed the flush would
// let the checkpoint count records not yet on disk.
func TestTeeForwardsFlush(t *testing.T) {
	var buf bytes.Buffer
	ledger := NewWriterSink(&buf)
	var coll Collector
	tee := Tee(ledger, &coll)
	if err := tee.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("writer sink flushed before Flush — test cannot tell forwarding apart")
	}
	f, ok := tee.(interface{ Flush() error })
	if !ok {
		t.Fatal("tee has no Flush method")
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(coll.Records) != 1 {
		t.Errorf("after Flush: ledger holds %d records, collector %d; want 1 and 1", len(recs), len(coll.Records))
	}

	boom := errors.New("boom")
	if err := Tee(failFlusher{boom}, ledger).(interface{ Flush() error }).Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush error = %v, want %v", err, boom)
	}
}

type failFlusher struct{ err error }

func (failFlusher) Observe(*HostRecord) error { return nil }
func (failFlusher) Close() error              { return nil }
func (f failFlusher) Flush() error            { return f.err }

type failSink struct{ err error }

func (f failSink) Observe(*HostRecord) error { return f.err }
func (f failSink) Close() error              { return f.err }

func TestTeeFanOutAndError(t *testing.T) {
	var a, b Collector
	tee := Tee(&a, &b)
	if err := tee.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != 1 || len(b.Records) != 1 {
		t.Errorf("fan-out: %d / %d", len(a.Records), len(b.Records))
	}

	boom := errors.New("boom")
	tee = Tee(&a, failSink{boom}, &b)
	if err := tee.Observe(sampleRecord()); !errors.Is(err, boom) {
		t.Errorf("Observe error = %v", err)
	}
	if err := tee.Close(); !errors.Is(err, boom) {
		t.Errorf("Close error = %v", err)
	}

	// Single-sink Tee collapses to the sink itself.
	if got := Tee(&a); got != Sink(&a) {
		t.Error("Tee of one sink should return it unchanged")
	}
}

func TestSyncedSerializesConcurrentProducers(t *testing.T) {
	var coll Collector
	s := Synced(&coll)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := s.Observe(sampleRecord()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(coll.Records) != 400 {
		t.Errorf("collector saw %d records, want 400", len(coll.Records))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

type closeCountSink struct {
	Collector
	closes int
}

func (s *closeCountSink) Close() error {
	s.closes++
	return nil
}

func TestKeepOpenSuppressesClose(t *testing.T) {
	inner := &closeCountSink{}
	view := KeepOpen(inner)
	if err := view.Observe(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if len(inner.Records) != 1 {
		t.Errorf("KeepOpen did not forward Observe: %d records", len(inner.Records))
	}
	if err := view.Close(); err != nil {
		t.Fatal(err)
	}
	if inner.closes != 0 {
		t.Errorf("KeepOpen leaked Close to the shared sink (%d closes)", inner.closes)
	}
	if err := inner.Close(); err != nil || inner.closes != 1 {
		t.Errorf("owner close: err=%v closes=%d", err, inner.closes)
	}
}
