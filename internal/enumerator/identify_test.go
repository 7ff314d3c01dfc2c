package enumerator

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/identify"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/worldgen"
)

// fleetOver runs an identifying Fleet over the given endpoints of a world and
// returns the records by IP and the metrics registry.
func fleetOver(t *testing.T, w *worldgen.World, feed []simnet.IP) (map[string]*dataset.HostRecord, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	fleet := &Fleet{
		Cfg:                Config{Timeout: time.Second},
		Network:            simnet.NewNetwork(w),
		SourceBase:         simnet.MustParseIP("250.0.0.1"),
		Workers:            8,
		Metrics:            reg,
		Identify:           &identify.Config{BannerWait: 120 * time.Millisecond},
		IdentifyWorkers:    8,
		IdentifySourceBase: simnet.MustParseIP("250.0.1.1"),
	}
	in := make(chan simnet.IP, len(feed))
	for _, ip := range feed {
		in <- ip
	}
	close(in)
	out := make(chan *dataset.HostRecord, len(feed))
	fleet.Run(context.Background(), in, out)
	recs := map[string]*dataset.HostRecord{}
	for rec := range out {
		if recs[rec.IP] != nil {
			t.Errorf("%s: two records", rec.IP)
		}
		recs[rec.IP] = rec
	}
	if len(recs) != len(feed) {
		t.Errorf("%d records for %d endpoints", len(recs), len(feed))
	}
	return recs, reg
}

// openEndpoints collects the first n discovered endpoints (FTP and service
// hosts alike) of a world, as the probe stage would hand them over.
func openEndpoints(t *testing.T, w *worldgen.World, n int) (feed []simnet.IP, ftpTruth map[simnet.IP]bool) {
	t.Helper()
	ftpTruth = map[simnet.IP]bool{}
	base := uint64(w.ScanBase)
	for off := uint64(0); off < w.ScanSize && len(feed) < n; off++ {
		ip := simnet.IP(base + off)
		truth, ok := w.Truth(ip)
		if !ok || (!truth.FTP && !truth.NonFTPOpen) {
			continue
		}
		feed = append(feed, ip)
		if truth.FTP {
			ftpTruth[ip] = true
		}
	}
	if len(feed) < n {
		t.Fatalf("world yielded only %d open endpoints, want %d", len(feed), n)
	}
	return feed, ftpTruth
}

// mixedWorld is a small world with real services squatting on port 21.
func mixedWorld(t *testing.T, hostile float64) *worldgen.World {
	t.Helper()
	p := worldgen.DefaultParams(11, 262144)
	p.FTPRateOfOpen = 0.35
	p.ServiceMix = worldgen.DefaultServiceMix()
	p.HostileRate = hostile
	w, err := worldgen.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFleetIdentifyMixedWorld: over a benign mixed world, the identifying
// fleet enumerates every true FTP endpoint on the connection identification
// opened, and sheds every service host after exactly one identification
// dial — the one-round-trip economics the funnel is built on.
func TestFleetIdentifyMixedWorld(t *testing.T) {
	w := mixedWorld(t, 0)
	feed, ftpTruth := openEndpoints(t, w, 96)
	recs, reg := fleetOver(t, w, feed)

	for _, ip := range feed {
		rec := recs[ip.String()]
		switch {
		case rec == nil:
		case ftpTruth[ip] && (rec.Service != "" || !rec.FTP):
			t.Errorf("%s: true FTP endpoint shed as %q (ftp=%v)", ip, rec.Service, rec.FTP)
		case !ftpTruth[ip] && (rec.Service == "" || rec.Service == string(fingerprint.ProtoFTP)):
			t.Errorf("%s: service host recorded with service %q", ip, rec.Service)
		}
	}
	c := reg.Snapshot().Counters
	if got := c["identify.dials"]; got != uint64(len(feed)) {
		t.Errorf("identify.dials = %d, want exactly one per endpoint (%d)", got, len(feed))
	}
	if got := c["identify.passed"]; got != uint64(len(ftpTruth)) {
		t.Errorf("identify.passed = %d, want %d", got, len(ftpTruth))
	}
	if got := c["identify.shed"]; got != uint64(len(feed)-len(ftpTruth)) {
		t.Errorf("identify.shed = %d, want %d", got, len(feed)-len(ftpTruth))
	}
	if c["identify.errors"] != 0 {
		t.Errorf("benign world produced %d identify errors", c["identify.errors"])
	}
	if c["identify.handoffs"] != c["identify.passed"] || c["enum.hosts"] != c["identify.passed"] {
		t.Errorf("every FTP endpoint greets unprompted, so each is enumerated on its handed-off connection: %+v", c)
	}
}

// TestFleetIdentifyHostileMixedWorld: with faults on both FTP and service
// hosts, every endpoint is still accounted for — passed plus shed equals
// dials, one record each, and nothing is identified twice. Faulted FTP hosts
// may legally shed (a pre-banner reset looks dead from one connection), but
// the fleet must neither hang nor double-count.
func TestFleetIdentifyHostileMixedWorld(t *testing.T) {
	w := mixedWorld(t, 0.5)
	feed, _ := openEndpoints(t, w, 64)
	recs, reg := fleetOver(t, w, feed)

	c := reg.Snapshot().Counters
	if got := c["identify.dials"]; got != uint64(len(feed)) {
		t.Errorf("identify.dials = %d, want %d", got, len(feed))
	}
	if c["identify.passed"]+c["identify.shed"] != c["identify.dials"] {
		t.Errorf("counter ledger out of balance: %+v", c)
	}
	if c["identify.handoffs"] > c["identify.passed"] || c["enum.hosts"] != c["identify.passed"] {
		t.Errorf("handoffs or enumerations disagree with passed: %+v", c)
	}
	enumerated := 0
	for _, rec := range recs {
		if rec.Service == "" {
			enumerated++
		}
	}
	if enumerated == 0 {
		t.Error("no FTP endpoint survived identification in the hostile world")
	}
}

// bannerHost serves greeting on srvIP:21, then holds the connection until
// the client hangs up — or closes at once when hangUp is set. prof, when
// non-nil, faults every control connection.
func bannerHost(greeting string, hangUp bool, prof *simnet.FaultProfile) *simnet.Network {
	provider := simnet.NewStaticProvider()
	provider.Add(srvIP, 21, simnet.HandlerFunc(func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		conn.Write([]byte(greeting))
		if !hangUp {
			io.Copy(io.Discard, conn)
		}
	}))
	nw := simnet.NewNetwork(provider)
	if prof != nil {
		nw.Faults = portFaults{match: controlPort, prof: *prof}
	}
	return nw
}

// handOff identifies the endpoint and enumerates it on the handed-off
// connection, returning the record and the dials enumeration added.
func handOff(t *testing.T, nw *simnet.Network, cfg Config) (*dataset.HostRecord, uint64) {
	t.Helper()
	res, conn := identify.Open(context.Background(), identify.Config{Dialer: cfg.Dialer, BannerWait: time.Second}, srvIP.String())
	if conn == nil {
		t.Fatalf("banner not handed off: %+v", res)
	}
	dials := nw.Stats.Dials.Load()
	rec := enumerate(context.Background(), cfg, srvIP.String(), &replayConn{Conn: conn, prefix: []byte(res.Banner)})
	return rec, nw.Stats.Dials.Load() - dials
}

// TestHandoffBannerFailureRetries: a banner cut by a reset on the handed-off
// connection is retried with a redial, and the record is the one a fresh
// enumeration writes — same retries, failure class and error.
func TestHandoffBannerFailureRetries(t *testing.T) {
	// The client reads "220-Welcome to the\r\n" (20 bytes), then the
	// connection resets — on the identified connection and on the redial.
	nw := bannerHost("220-Welcome to the\r\n220-file archive\r\n220 ready\r\n", false,
		&simnet.FaultProfile{ResetAfterBytes: 20})
	cfg := enumConfig(nw)
	cfg.Retry = RetryPolicy{BaseDelay: time.Millisecond}

	fresh := Enumerate(context.Background(), cfg, srvIP.String())
	handed, redials := handOff(t, nw, cfg)
	if redials != 1 {
		t.Errorf("handed-off enumeration dialed %d times, want one redial", redials)
	}
	if handed.Retries != 1 || handed.FailureClass != FailReset {
		t.Errorf("handed-off record: retries %d class %q, want 1 retry and %q", handed.Retries, handed.FailureClass, FailReset)
	}
	if handed.Retries != fresh.Retries || handed.FailureClass != fresh.FailureClass || handed.Error != fresh.Error {
		t.Errorf("handed-off record diverges from a fresh enumeration:\n got %+v\nwant %+v", handed, fresh)
	}
}

// TestBannerAnswersAreNotRetried: a responder that hangs up mid-banner (eof)
// or sends an unframeable banner (protocol) has answered for the host, so
// neither a fresh dial nor a handed-off connection is retried — even with
// retries to spare — and the record keeps the failure's class and error.
func TestBannerAnswersAreNotRetried(t *testing.T) {
	for _, tc := range []struct {
		name     string
		greeting string
		hangUp   bool
		class    string
	}{
		{"eof", "220-Welcome to the\r\n220-file archi", true, FailEOF},
		{"protocol", "220-Welcome\r\n" + strings.Repeat("x", 2*ftp.MaxLineLen), false, FailProtocol},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := bannerHost(tc.greeting, tc.hangUp, nil)
			cfg := enumConfig(nw)
			cfg.Retry = RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond}
			reg := obs.NewRegistry()
			cfg.Metrics = reg

			dials := nw.Stats.Dials.Load()
			fresh := Enumerate(context.Background(), cfg, srvIP.String())
			if got := nw.Stats.Dials.Load() - dials; got != 1 {
				t.Errorf("fresh enumeration dialed %d times, want 1", got)
			}
			handed, redials := handOff(t, nw, cfg)
			if redials != 0 {
				t.Errorf("handed-off enumeration redialed %d times, want 0", redials)
			}
			for path, rec := range map[string]*dataset.HostRecord{"fresh": fresh, "handoff": handed} {
				if rec.Retries != 0 || rec.FailureClass != tc.class || rec.FTP {
					t.Errorf("%s: retries %d class %q ftp %v, want 0 retries and %q", path, rec.Retries, rec.FailureClass, rec.FTP, tc.class)
				}
				if !strings.HasPrefix(rec.Error, "banner:") || rec.Error != fresh.Error {
					t.Errorf("%s: Error = %q, want the fresh record's banner error %q", path, rec.Error, fresh.Error)
				}
			}
			if got := reg.Snapshot().Counters["enum.retries"]; got != 0 {
				t.Errorf("enum.retries = %d, want 0", got)
			}
		})
	}
}

// streamConn is a read-only connection over a byte stream; the FTP reader
// with no timeout calls nothing else.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// readReplies reads replies until the first error and returns them with that
// error's failure class.
func readReplies(nc net.Conn) ([]ftp.Reply, string) {
	c := ftp.NewConn(nc)
	var replies []ftp.Reply
	for {
		r, err := c.ReadReply()
		if err != nil {
			return replies, classifyErr(err)
		}
		replies = append(replies, r)
	}
}

// FuzzHandoffReplay: reading a server stream through a handed-off connection
// — the first split bytes replayed, the rest read live — yields the replies
// of the unsplit stream, in order, ending in the same failure class.
func FuzzHandoffReplay(f *testing.F) {
	for _, s := range []string{
		"220 ready\r\n331 Password required\r\n230 Logged in\r\n",
		"220-Welcome\r\n220-to the archive\r\n220 ready\r\n",
		"220-Welcome to the\r\n220-file archi",
		"220 FTP server ready\r\n\xfe#@!\xfe#@!",
		"2",
		"",
	} {
		f.Add([]byte(s), uint16(4))
	}
	f.Fuzz(func(t *testing.T, stream []byte, split uint16) {
		k := int(split) % (len(stream) + 1)
		want, wantClass := readReplies(streamConn{r: bytes.NewReader(stream)})
		got, gotClass := readReplies(&replayConn{
			Conn:   streamConn{r: bytes.NewReader(stream[k:])},
			prefix: stream[:k],
		})
		if !reflect.DeepEqual(got, want) || gotClass != wantClass {
			t.Errorf("split at %d: replies %+v (%s), unsplit %+v (%s)", k, got, gotClass, want, wantClass)
		}
	})
}
