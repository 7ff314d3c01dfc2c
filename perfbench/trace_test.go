package main

import (
	"net"
	"testing"
	"time"

	"ftpcloud/internal/obs"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "conn", Start: 0, End: 100, Parent: -1},
		{Name: "cmd.USER", Start: 10, End: 30, Parent: 0},
		{Name: "cmd.PASS", Start: 20, End: 40, Parent: 0},  // overlaps USER
		{Name: "cmd.QUIT", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	self := selfTimes(spans)
	if want := int64(100 - 30 - 10); self[0] != want {
		t.Errorf("conn self time = %d, want %d", self[0], want)
	}
	if self[1] != 20 || self[3] != 30 {
		t.Errorf("leaf self times = %v, want their durations", self)
	}
}

// TestTracedConnCommandSpans drives a traced connection the way an FTP
// server does: banner, then one reply per command, then AUTH TLS, after
// which the bytes are opaque and the AUTH span runs until close.
func TestTracedConnCommandSpans(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	tr := newTracer(nil, true)
	tc := tr.open(server, 0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		tc.Write([]byte("220 ready\r\n"))
		for _, reply := range []string{"331 pass\r\n", "230 in\r\n", "234 tls\r\n"} {
			if _, err := tc.Read(buf); err != nil {
				t.Error(err)
				return
			}
			tc.Write([]byte(reply))
		}
		tc.Read(buf) // ciphertext
		tc.finish()
	}()
	rd := make([]byte, 64)
	client.Read(rd)
	for _, cmd := range []string{"USER anonymous\r\n", "pass x\r\n", "AUTH TLS\r\n", "LIST /\r\n"} {
		client.Write([]byte(cmd))
		if cmd != "LIST /\r\n" {
			client.Read(rd)
		}
	}
	<-done

	spans := tr.Spans()
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
	}
	want := []string{"conn.session", "cmd.USER", "cmd.PASS", "cmd.AUTH"}
	if len(names) != len(want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans = %v, want %v", names, want)
		}
	}
	if auth, conn := spans[3], spans[0]; auth.End != conn.End {
		t.Errorf("AUTH span ends at %d, connection at %d; want the same", auth.End, conn.End)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	h := obs.HistogramSnapshot{Count: 4, Buckets: []obs.Bucket{
		{LENanos: int64(time.Millisecond), Count: 2},
		{LENanos: int64(3 * time.Millisecond), Count: 2},
		{LENanos: -1, Count: 0},
	}}
	if got := quantileMS(h, 0.5); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := quantileMS(h, 0.75); got != 2 {
		t.Errorf("p75 = %v ms, want 2", got)
	}
	if got := quantileMS(obs.HistogramSnapshot{}, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}
