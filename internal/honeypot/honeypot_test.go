package honeypot

import (
	"context"
	"strings"
	"testing"
	"time"

	"ftpcloud/internal/attacker"
	"ftpcloud/internal/certs"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/simnet"
)

func deployTest(t *testing.T, count int) (*simnet.Network, *Deployment) {
	t.Helper()
	pool, err := certs.GeneratePool(5, []certs.Spec{
		{Name: "hp", CommonName: "honeypot.example.edu", SelfSigned: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	dep, err := DeployFleet(provider, FleetConfig{
		Base:  simnet.MustParseIP("100.64.0.1"),
		Count: count,
		Mix:   LureMix{Webroot: 1},
		Cert:  pool.Get("hp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return simnet.NewNetwork(provider), dep
}

func TestDeployValidation(t *testing.T) {
	provider := simnet.NewStaticProvider()
	if _, err := DeployFleet(provider, FleetConfig{Base: 1, Mix: LureMix{Webroot: 1}}); err == nil {
		t.Error("zero-count deploy accepted")
	}
}

func TestDeployServesAnonymousWritable(t *testing.T) {
	nw, dep := deployTest(t, 1)
	nc, err := nw.DialFrom(simnet.MustParseIP("9.9.9.9"), dep.IPs[0], 21)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	if r, _ := c.ReadReply(); r.Code != ftp.CodeReady {
		t.Fatalf("banner: %+v", r)
	}
	c.Cmd("USER", "anonymous")
	if r, _ := c.Cmd("PASS", "x@x"); r.Code != ftp.CodeLoggedIn {
		t.Fatalf("login: %+v", r)
	}
	if r, _ := c.Cmd("MKD", "/droptest"); r.Code != ftp.CodePathCreated {
		t.Fatalf("MKD: %+v", r)
	}
	if dep.Acc.Events() == 0 {
		t.Error("honeypot recorded nothing")
	}
}

// TestFullStudy runs the calibrated attacker fleet against eight honeypots
// and verifies the §VIII-style summary statistics.
func TestFullStudy(t *testing.T) {
	nw, dep := deployTest(t, 8)
	bots := attacker.DefaultMix(457, 1234, 0.30)
	fleet := &attacker.Fleet{
		Network:      nw,
		Bots:         bots,
		Targets:      dep.IPs,
		BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
		Timeout:      5 * time.Second,
	}
	stats := fleet.Run(context.Background())
	if stats.BotsRun != 457 {
		t.Fatalf("bots run: %d", stats.BotsRun)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !dep.Acc.Quiesce(ctx, uint64(stats.Sessions)) {
		t.Fatal("accumulator never quiesced")
	}
	s := dep.Acc.Summary()
	if s.UniqueScanners != 457 {
		t.Errorf("unique scanners = %d, want 457", s.UniqueScanners)
	}
	// ~30% of sources come from the concentrated /8.
	if s.TopSourcePrefixShare < 20 || s.TopSourcePrefixShare > 40 {
		t.Errorf("top prefix share = %.1f, want ≈30", s.TopSourcePrefixShare)
	}
	if s.TopSourcePrefix != "61.0.0.0/8" {
		t.Errorf("top prefix = %s", s.TopSourcePrefix)
	}
	// FTP speakers: all non-scanner/http bots (paper: 85 of 457).
	if s.SpokeFTP < 60 || s.SpokeFTP > 130 {
		t.Errorf("spoke FTP = %d, paper has 85", s.SpokeFTP)
	}
	if s.HTTPGet < 200 {
		t.Errorf("HTTP GETs = %d, most scanners probe HTTP", s.HTTPGet)
	}
	if s.Traversed == 0 || s.Listed == 0 {
		t.Errorf("traversal stats: %d/%d", s.Traversed, s.Listed)
	}
	// Credential diversity: 24 guessers × 6 pairs ≥ 100 unique pairs.
	if s.CredentialPairs < 50 {
		t.Errorf("credential pairs = %d", s.CredentialPairs)
	}
	// All bounce attempts target the same third party (paper's signature).
	if len(s.BounceTargets) != 1 {
		t.Errorf("bounce targets: %+v", s.BounceTargets)
	}
	if s.BounceAttempts < 8 {
		t.Errorf("bounce attempts = %d", s.BounceAttempts)
	}
	if s.AuthTLS < 20 {
		t.Errorf("AUTH TLS fingerprinters = %d", s.AuthTLS)
	}
	if s.CVEAttempts == 0 {
		t.Error("CVE-2015-3306 probe not recorded")
	}
	if s.RootLogins == 0 {
		t.Error("Seagate root-login attempt not recorded")
	}
	if s.Uploads == 0 || s.Deletes == 0 {
		t.Errorf("write probes: %d uploads / %d deletes", s.Uploads, s.Deletes)
	}
	if s.MkdirOnly == 0 {
		t.Error("WaReZ mkdir-without-upload not recorded")
	}

	out := Render(s)
	for _, want := range []string{"Section VIII", "unique scanning IPs", "PORT bounce"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewAccumulator().Summary()
	if s.UniqueScanners != 0 || s.CredentialPairs != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}
