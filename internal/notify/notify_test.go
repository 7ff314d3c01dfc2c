package notify

import (
	"strings"
	"testing"

	"ftpcloud/internal/asdb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
)

// testNotices streams a small hand-built census through a Builder.
func testNotices(t *testing.T) []Notice {
	t.Helper()
	db, err := asdb.NewDB([]*asdb.AS{
		{Number: 100, Name: "Net A", Type: asdb.TypeHosting,
			Prefixes: []simnet.Prefix{{Base: simnet.MustParseIP("10.0.0.0"), Bits: 16}}},
		{Number: 200, Name: "Net B", Type: asdb.TypeISP,
			Prefixes: []simnet.Prefix{{Base: simnet.MustParseIP("20.0.0.0"), Bits: 16}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(db)
	for _, rec := range []*dataset.HostRecord{
		{
			IP: "10.0.0.1", FTP: true, AnonymousOK: true, PortOpen: true,
			Banner: "ProFTPD 1.3.2 Server",
			Files: []dataset.FileEntry{
				{Path: "/d/mail.pst", Name: "mail.pst"},
				{Path: "/d/passwords.kdbx", Name: "passwords.kdbx"},
				{Path: "/d/ssh_host_rsa_key", Name: "ssh_host_rsa_key"},
			},
			PortCheck: dataset.PortNotValidated,
		},
		{
			IP: "10.0.0.2", FTP: true, AnonymousOK: true, PortOpen: true,
			Banner:        "FTP server ready.",
			WriteEvidence: []string{"w0000000t.txt"},
		},
		{IP: "20.0.0.1", FTP: true, PortOpen: true, Banner: "(vsFTPd 2.3.2)"},
		{IP: "20.0.0.2", FTP: true, PortOpen: true, Banner: "FTP server ready."},
		{IP: "20.0.0.3", PortOpen: true},
		{IP: "30.0.0.1", FTP: true, AnonymousOK: true, PortOpen: true,
			Banner: "(vsFTPd 2.3.2)", WriteEvidence: []string{"w0000000t.txt"}},
	} {
		if err := b.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Notices()
}

func TestBuildGroupsByAS(t *testing.T) {
	notices := testNotices(t)
	if len(notices) != 2 {
		t.Fatalf("notices = %d", len(notices))
	}
	// Net A has more findings: sensitive + bounce + cve + writable = 4.
	a := notices[0]
	if a.ASNumber != 100 {
		t.Fatalf("first notice AS%d", a.ASNumber)
	}
	if len(a.Findings) != 4 {
		t.Errorf("Net A findings = %d: %+v", len(a.Findings), a.Findings)
	}
	kinds := map[Kind]int{}
	for _, f := range a.Findings {
		kinds[f.Kind]++
	}
	for _, want := range []Kind{KindSensitiveExposure, KindWorldWritable, KindBounceVulnerable, KindKnownCVE} {
		if kinds[want] != 1 {
			t.Errorf("missing finding kind %s: %+v", want, kinds)
		}
	}
	b := notices[1]
	if b.ASNumber != 200 || len(b.Findings) != 1 || b.Findings[0].Kind != KindKnownCVE {
		t.Errorf("Net B notice: %+v", b)
	}
}

func TestRenderWithholdsPaths(t *testing.T) {
	notices := testNotices(t)
	out := Render(notices[0])
	for _, want := range []string{"abuse@as100.example.net", "AS100", "email archives (1 files)",
		"password databases", "cryptographic key material", "FTP bounce"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The notice must never reveal file paths or names.
	for _, forbidden := range []string{"mail.pst", "passwords.kdbx", "/d/"} {
		if strings.Contains(out, forbidden) {
			t.Errorf("render leaked %q:\n%s", forbidden, out)
		}
	}
}

func TestSensitiveCategory(t *testing.T) {
	tests := []struct {
		name, want string
	}{
		{"mail.PST", "email archives"},
		{"q.qdf", "financial records"},
		{"tax.txf", "financial records"},
		{"x.kdbx", "password databases"},
		{"1Password.agilekeychain", "password databases"},
		{"ssh_host_rsa_key", "cryptographic key material"},
		{"ssh_host_rsa_key.pub", ""},
		{"key.ppk", "cryptographic key material"},
		{"server-priv.pem", "cryptographic key material"},
		{"shadow", "system password files"},
		{"shadow.1", "system password files"},
		{"vacation.jpg", ""},
	}
	for _, tt := range tests {
		if got := sensitiveCategory(tt.name); got != tt.want {
			t.Errorf("sensitiveCategory(%q) = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	if notices := NewBuilder(nil).Notices(); len(notices) != 0 {
		t.Errorf("empty input produced notices: %+v", notices)
	}
}
