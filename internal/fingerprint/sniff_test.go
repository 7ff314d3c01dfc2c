package fingerprint

import (
	"testing"

	"ftpcloud/internal/dataset"
)

// nonFTPFirstBytes is the corpus of first-response bytes the worldgen
// service layer puts on port 21 — every non-FTP shape the identification
// stage must shed.
var nonFTPFirstBytes = []struct {
	name  string
	bytes []byte
	want  Protocol
}{
	{"http response", []byte("HTTP/1.1 400 Bad Request\r\nServer: nginx/1.10.3\r\n\r\n"), ProtoHTTP},
	{"ssh banner", []byte("SSH-2.0-OpenSSH_7.4\r\n"), ProtoSSH},
	{"ssh dropbear", []byte("SSH-2.0-dropbear_2014.63\r\n"), ProtoSSH},
	{"tls alert", []byte{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x28}, ProtoTLS},
	{"tls server hello", []byte{0x16, 0x03, 0x01, 0x00, 0x31, 0x02}, ProtoTLS},
	{"telnet negotiation", []byte{0xFF, 0xFD, 0x18, 0xFF, 0xFD, 0x1F}, ProtoTelnet},
	{"binary garbage", []byte{0x8a, 0xc3, 0x9e, 0xb1, 0x80, 0xdd}, ProtoGarbage},
	{"ascii garbage", []byte("hello whoever is knocking"), ProtoGarbage},
	{"legacy junk banner", []byte{0x00, 0x00, 0x00, 0x00, 'g', 'a', 'r', 'b'}, ProtoGarbage},
	{"short digits", []byte("22"), ProtoGarbage},
	{"date masquerade", []byte("2024-01-01 00:00"), ProtoGarbage},
}

// TestSniffProtocolNonFTP: every non-FTP shape sniffs to its protocol,
// never to FTP.
func TestSniffProtocolNonFTP(t *testing.T) {
	for _, tc := range nonFTPFirstBytes {
		if got := SniffProtocol(tc.bytes); got != tc.want {
			t.Errorf("%s: sniffed %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestSniffProtocolFTP: real FTP openings sniff as FTP, including
// multi-line banners and dripped prefixes.
func TestSniffProtocolFTP(t *testing.T) {
	for _, b := range []string{
		"220 FTP server ready\r\n",
		"220-Welcome to the\r\n220-file archi",
		"421 Too many connections\r\n",
		"220 (vsFTPd 3.0.2)\r\n",
	} {
		if got := SniffProtocol([]byte(b)); got != ProtoFTP {
			t.Errorf("SniffProtocol(%q) = %q, want ftp", b, got)
		}
	}
	if got := SniffProtocol(nil); got != ProtoNone {
		t.Errorf("SniffProtocol(nil) = %q, want none", got)
	}
}

// TestNonFTPBytesNeverClassify: first-response bytes from unexpected
// services must never land in a paper category — Table II's population is
// FTP servers, so the shed decision feeds on Known() staying false. This
// guards the identification stage's contract with the ledger: a shed
// endpoint can appear in the unexpected-services table, never in the
// classification breakout.
func TestNonFTPBytesNeverClassify(t *testing.T) {
	for _, tc := range nonFTPFirstBytes {
		rec := &dataset.HostRecord{
			IP:       "192.0.2.1",
			PortOpen: true,
			FTP:      false,
			Banner:   string(tc.bytes),
		}
		c := Classify(rec)
		if c.Known() {
			t.Errorf("%s: classified into paper category %v", tc.name, c.Category)
		}
		if c.Software != "" || c.DeviceModel != "" {
			t.Errorf("%s: fingerprinted as %s %s", tc.name, c.Software, c.DeviceModel)
		}
	}
}

// FuzzSniffProtocol: any first response sniffs without panicking, and only
// an RFC 959 reply opening — a reply class digit 1-6, two more digits, then
// a space or the multi-line hyphen — sniffs as FTP.
func FuzzSniffProtocol(f *testing.F) {
	for _, tc := range nonFTPFirstBytes {
		f.Add(tc.bytes)
	}
	for _, s := range []string{"220 ProFTPD ready\r\n", "220-Welcome\r\n", "150 ", "720 x", "22", "2", ""} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got := SniffProtocol(b)
		opening := len(b) >= 4 && b[0] >= '1' && b[0] <= '6' &&
			b[1] >= '0' && b[1] <= '9' && b[2] >= '0' && b[2] <= '9' &&
			(b[3] == ' ' || b[3] == '-')
		if (got == ProtoFTP) != opening {
			t.Errorf("SniffProtocol(%q) = %q; FTP reply opening: %v", b, got, opening)
		}
		if len(b) == 0 && got != ProtoNone {
			t.Errorf("no bytes sniffed as %q, want %q", got, ProtoNone)
		}
	})
}
