package identify

import (
	"context"
	"net"
	"testing"
	"time"

	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/simnet"
)

// scriptedNet is a test HostProvider mapping addresses to port-21 handlers —
// each handler scripts one first-contact behaviour (banner, drip, stall).
type scriptedNet map[simnet.IP]simnet.HandlerFunc

func (s scriptedNet) Lookup(ip simnet.IP) simnet.Host {
	h, ok := s[ip]
	if !ok {
		return nil
	}
	return scriptedHost{h}
}

type scriptedHost struct{ h simnet.HandlerFunc }

func (s scriptedHost) Listening(port uint16) bool { return port == 21 }

func (s scriptedHost) Handler(port uint16) simnet.Handler {
	if port != 21 {
		return nil
	}
	return s.h
}

// identifyOne runs Identify against a single scripted handler.
func identifyOne(t *testing.T, wait time.Duration, h simnet.HandlerFunc) Result {
	t.Helper()
	ip := simnet.MustParseIP("198.51.100.7")
	nw := simnet.NewNetwork(scriptedNet{ip: h})
	cfg := Config{
		Dialer:     simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
		BannerWait: wait,
	}
	return Identify(context.Background(), cfg, ip.String())
}

// readAll drains a connection until close so scripted servers can linger.
func readAll(conn net.Conn) {
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// TestIdentifyServerFirstBanner: protocols that speak first are identified
// from the banner alone — no trigger bytes ever leave the scanner.
func TestIdentifyServerFirstBanner(t *testing.T) {
	for _, tc := range []struct {
		name   string
		banner string
		want   fingerprint.Protocol
	}{
		{"ftp", "220 ProFTPD 1.3.5 Server ready\r\n", fingerprint.ProtoFTP},
		{"ssh", "SSH-2.0-OpenSSH_7.4\r\n", fingerprint.ProtoSSH},
	} {
		res := identifyOne(t, time.Second, func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			conn.Write([]byte(tc.banner))
			readAll(conn)
		})
		if res.Protocol != tc.want || res.Triggered {
			t.Errorf("%s: got protocol %q (triggered=%v), want %q untriggered",
				tc.name, res.Protocol, res.Triggered, tc.want)
		}
		if res.Banner != tc.banner {
			t.Errorf("%s: banner %q, want %q", tc.name, res.Banner, tc.banner)
		}
	}
}

// TestIdentifyClientFirstTrigger: quiet endpoints get exactly one minimal
// trigger, and their response identifies them.
func TestIdentifyClientFirstTrigger(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
		want  fingerprint.Protocol
	}{
		{"http", []byte("HTTP/1.1 400 Bad Request\r\n\r\n"), fingerprint.ProtoHTTP},
		{"tls", []byte{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x28}, fingerprint.ProtoTLS},
	} {
		res := identifyOne(t, 150*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			buf := make([]byte, 64)
			if n, _ := conn.Read(buf); n == 0 {
				return
			}
			conn.Write(tc.reply)
			readAll(conn)
		})
		if res.Protocol != tc.want || !res.Triggered {
			t.Errorf("%s: got protocol %q (triggered=%v), want %q after trigger",
				tc.name, res.Protocol, res.Triggered, tc.want)
		}
	}
}

// TestIdentifySilentAccept: an endpoint that never speaks through both
// windows is shed as ProtoNone — dead air costs one connection, two waits.
func TestIdentifySilentAccept(t *testing.T) {
	res := identifyOne(t, 60*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		readAll(conn)
	})
	if res.Protocol != fingerprint.ProtoNone || !res.Triggered || res.Err != nil {
		t.Errorf("silent accept: got %+v, want triggered ProtoNone", res)
	}
}

// TestIdentifyDialRefused: a connection failure sheds as ProtoNone with the
// error recorded — no retries, no second dial.
func TestIdentifyDialRefused(t *testing.T) {
	nw := simnet.NewNetwork(nil)
	cfg := Config{Dialer: simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")}}
	res := Identify(context.Background(), cfg, "198.51.100.7")
	if res.Protocol != fingerprint.ProtoNone || res.Err == nil {
		t.Errorf("refused dial: got %+v, want ProtoNone with error", res)
	}
}

// TestIdentifyChaosDrippedBanner: a hostile server dripping its FTP banner a
// byte or two at a time must still identify as FTP — the settle loop keeps
// reading while the evidence is too thin to call.
func TestIdentifyChaosDrippedBanner(t *testing.T) {
	res := identifyOne(t, 500*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		for _, chunk := range []string{"2", "2", "0 slow drip ftp\r\n"} {
			conn.Write([]byte(chunk))
			time.Sleep(20 * time.Millisecond)
		}
		readAll(conn)
	})
	if res.Protocol != fingerprint.ProtoFTP {
		t.Errorf("dripped banner: got %q (banner %q), want ftp", res.Protocol, res.Banner)
	}
}

// TestIdentifyChaosStalledBanner: a server that emits one byte and stalls is
// shed as garbage when the window closes — identification never hangs on a
// tarpit.
func TestIdentifyChaosStalledBanner(t *testing.T) {
	start := time.Now()
	res := identifyOne(t, 80*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		conn.Write([]byte("2"))
		time.Sleep(2 * time.Second)
	})
	if res.Protocol != fingerprint.ProtoGarbage {
		t.Errorf("stalled banner: got %q, want garbage", res.Protocol)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("stalled banner held identification for %v", elapsed)
	}
}

// TestIdentifyChaosMidBannerUnexpectedEOF: a reply-code fragment cut off by
// a close must never pass as FTP.
func TestIdentifyChaosMidBannerUnexpectedEOF(t *testing.T) {
	res := identifyOne(t, 200*time.Millisecond, func(_ *simnet.Network, conn net.Conn) {
		conn.Write([]byte("22"))
		conn.Close()
	})
	if res.Protocol == fingerprint.ProtoFTP {
		t.Errorf("truncated reply code passed as FTP (banner %q)", res.Banner)
	}
}

// TestIdentifyChaosGarbageBanner: a decisive garbage banner is shed without
// waiting out the window — only thin evidence buys more reading time.
func TestIdentifyChaosGarbageBanner(t *testing.T) {
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = byte(0x80 + i%0x40)
	}
	start := time.Now()
	res := identifyOne(t, 2*time.Second, func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		conn.Write(garbage)
		readAll(conn)
	})
	if res.Protocol != fingerprint.ProtoGarbage {
		t.Errorf("garbage banner: got %q", res.Protocol)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("decisive garbage held identification for %v", elapsed)
	}
}

// TestOpenHandsOffGreetingFTP: an FTP endpoint that greeted unprompted comes
// back live, with the banner in the result and nothing sent by identification
// — the first bytes the server reads are the client's first command.
func TestOpenHandsOffGreetingFTP(t *testing.T) {
	const banner = "220 ProFTPD 1.3.5 Server ready\r\n"
	ip := simnet.MustParseIP("198.51.100.7")
	first := make(chan string, 1)
	nw := simnet.NewNetwork(scriptedNet{ip: func(_ *simnet.Network, conn net.Conn) {
		defer conn.Close()
		conn.Write([]byte(banner))
		buf := make([]byte, 64)
		n, _ := conn.Read(buf)
		first <- string(buf[:n])
	}})
	cfg := Config{
		Dialer:     simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
		BannerWait: time.Second,
	}
	res, conn := Open(context.Background(), cfg, ip.String())
	if conn == nil {
		t.Fatalf("greeting FTP endpoint not handed off: %+v", res)
	}
	defer conn.Close()
	if res.Protocol != fingerprint.ProtoFTP || res.Triggered || res.Banner != banner {
		t.Fatalf("result %+v, want untriggered ftp with banner %q", res, banner)
	}
	if _, err := conn.Write([]byte("NOOP\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := <-first; got != "NOOP\r\n" {
		t.Errorf("server first read %q, want the client's first command", got)
	}
}

// TestOpenClosesUnlessGreetingFTP: only an untriggered FTP endpoint keeps its
// connection. A client-first FTP responder has already read the trigger, and
// a non-FTP endpoint is shed, so both come back closed.
func TestOpenClosesUnlessGreetingFTP(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    simnet.HandlerFunc
		want fingerprint.Protocol
	}{
		{"triggered-ftp", func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			buf := make([]byte, 64)
			if n, _ := conn.Read(buf); n == 0 {
				return
			}
			conn.Write([]byte("500 What?\r\n"))
			readAll(conn)
		}, fingerprint.ProtoFTP},
		{"ssh", func(_ *simnet.Network, conn net.Conn) {
			defer conn.Close()
			conn.Write([]byte("SSH-2.0-OpenSSH_7.4\r\n"))
			readAll(conn)
		}, fingerprint.ProtoSSH},
	} {
		ip := simnet.MustParseIP("198.51.100.7")
		nw := simnet.NewNetwork(scriptedNet{ip: tc.h})
		cfg := Config{
			Dialer:     simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
			BannerWait: 60 * time.Millisecond,
		}
		res, conn := Open(context.Background(), cfg, ip.String())
		if conn != nil {
			conn.Close()
			t.Errorf("%s: connection handed off", tc.name)
		}
		if res.Protocol != tc.want {
			t.Errorf("%s: protocol %q, want %q", tc.name, res.Protocol, tc.want)
		}
	}
}
