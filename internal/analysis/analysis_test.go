package analysis

import (
	"testing"

	"ftpcloud/internal/asdb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/simnet"
)

// testASDB builds two ASes: home.pl-like hosting at 10.0.0.0/16 and an ISP
// at 20.0.0.0/16.
func testASDB(t *testing.T) *asdb.DB {
	t.Helper()
	db, err := asdb.NewDB([]*asdb.AS{
		{Number: 12824, Name: "home.pl S.A.", Type: asdb.TypeHosting,
			Prefixes: []simnet.Prefix{{Base: simnet.MustParseIP("10.0.0.0"), Bits: 16}}},
		{Number: 4134, Name: "Chinanet", Type: asdb.TypeISP,
			Prefixes: []simnet.Prefix{{Base: simnet.MustParseIP("20.0.0.0"), Bits: 16}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func file(path, name string, read dataset.Readability) dataset.FileEntry {
	return dataset.FileEntry{Path: path, Name: name, Read: read}
}

func dir(path, name string) dataset.FileEntry {
	return dataset.FileEntry{Path: path, Name: name, IsDir: true}
}

// fixture is a hand-built census: the records plus the join sources an
// Aggregator resolves them against.
type fixture struct {
	IPsScanned uint64
	Records    []*dataset.HostRecord
	ASDB       *asdb.DB
	HTTP       map[string]HTTPInfo
}

// httpHook answers the HTTP join from the fixture's map.
func (f *fixture) httpHook(r *Record) (HTTPInfo, bool) {
	info, ok := f.HTTP[r.Host.IP]
	return info, ok
}

// aggregator returns a fresh Aggregator over the fixture's join sources.
func (f *fixture) aggregator() *Aggregator {
	return NewAggregator(f.ASDB, f.httpHook)
}

// buildInput assembles a small, fully hand-understood dataset.
func buildInput(t *testing.T) *fixture {
	t.Helper()
	records := []*dataset.HostRecord{
		// Non-FTP open host.
		{IP: "20.0.0.1", PortOpen: true},
		// home.pl anonymous host, PORT-vulnerable, write evidence, FTPS.
		{
			IP: "10.0.0.1", PortOpen: true, FTP: true, AnonymousOK: true,
			Banner:    "home.pl FTP server ready [h1]",
			PortCheck: dataset.PortNotValidated,
			FTPS: &dataset.FTPSInfo{Supported: true, Cert: &dataset.CertInfo{
				FingerprintSHA256: "fp-homepl", CommonName: "*.home.pl"}},
			Files: []dataset.FileEntry{
				dir("/web", "web"),
				file("/web/index.html", "index.html", dataset.ReadYes),
				file("/web/config.php", "config.php", dataset.ReadYes),
				file("/web/.htaccess", ".htaccess", dataset.ReadYes),
				file("/w0000000t.txt", "w0000000t.txt", dataset.ReadYes),
				file("/history.php", "history.php", dataset.ReadYes),
			},
			WriteEvidence: []string{"w0000000t.txt", "history.php"},
		},
		// QNAP NAS: anonymous, NAT-ed, sensitive docs + photos, shared cert.
		{
			IP: "20.0.0.2", PortOpen: true, FTP: true, AnonymousOK: true,
			Banner:       "NASFTPD Turbo station 1.3.1e Server (ProFTPD) [192.168.1.9]",
			PASVIP:       "192.168.1.9",
			PASVMismatch: true,
			PortCheck:    dataset.PortValidated,
			FTPS: &dataset.FTPSInfo{Supported: true, Cert: &dataset.CertInfo{
				FingerprintSHA256: "fp-qnap", CommonName: "QNAP NAS", SelfSigned: true}},
			Files: []dataset.FileEntry{
				dir("/Photos", "Photos"),
				file("/Photos/DSC_0001.JPG", "DSC_0001.JPG", dataset.ReadYes),
				file("/Photos/DSC_0002.JPG", "DSC_0002.JPG", dataset.ReadYes),
				dir("/Documents", "Documents"),
				file("/Documents/mailbox_001.pst", "mailbox_001.pst", dataset.ReadYes),
				file("/Documents/TurboTax-Export-2014.txf", "TurboTax-Export-2014.txf", dataset.ReadYes),
				file("/Documents/ssh_host_rsa_key.0", "ssh_host_rsa_key.0", dataset.ReadNo),
				file("/Documents/passwords-1.kdbx", "passwords-1.kdbx", dataset.ReadYes),
			},
		},
		// Second QNAP sharing the same certificate (Table XIII signal).
		{
			IP: "20.0.0.3", PortOpen: true, FTP: true, AnonymousOK: false,
			Banner: "NASFTPD Turbo station 1.3.1e Server (ProFTPD) [192.168.7.7]",
			FTPS: &dataset.FTPSInfo{Supported: true, Cert: &dataset.CertInfo{
				FingerprintSHA256: "fp-qnap", CommonName: "QNAP NAS", SelfSigned: true}},
		},
		// Vulnerable ProFTPD with exposed Linux root.
		{
			IP: "20.0.0.4", PortOpen: true, FTP: true, AnonymousOK: true,
			Banner:    "ProFTPD 1.3.2 Server (Debian) [20.0.0.4]",
			PortCheck: dataset.PortValidated,
			Files: []dataset.FileEntry{
				dir("/bin", "bin"), dir("/etc", "etc"), dir("/var", "var"), dir("/boot", "boot"),
				file("/etc/shadow", "shadow", dataset.ReadNo),
				file("/etc/passwd", "passwd", dataset.ReadYes),
			},
		},
		// FileZilla host, not anonymous.
		{
			IP: "20.0.0.5", PortOpen: true, FTP: true,
			Banner: "-FileZilla Server version 0.9.41 beta",
		},
		// Ramnit victim.
		{
			IP: "20.0.0.6", PortOpen: true, FTP: true,
			Banner: "220 RMNetwork FTP",
		},
		// Unknown banner, anonymous, empty tree, robots excluded.
		{
			IP: "10.0.0.7", PortOpen: true, FTP: true, AnonymousOK: true,
			Banner: "FTP server ready.", RobotsTxt: "User-agent: *\nDisallow: /\n",
			RobotsExcludeAll: true,
		},
		// WaReZ drop host with Holy Bible tag.
		{
			IP: "20.0.0.8", PortOpen: true, FTP: true, AnonymousOK: true,
			Banner: "(vsFTPd 2.3.2)",
			Files: []dataset.FileEntry{
				dir("/150618120000p", "150618120000p"),
				file("/Holy-Bible.html", "Holy-Bible.html", dataset.ReadYes),
				file("/sh3ll.php", "sh3ll.php", dataset.ReadYes),
			},
			WriteEvidence: []string{"sh3ll.php"},
			PortCheck:     dataset.PortNotValidated,
		},
	}
	return &fixture{
		IPsScanned: 1000,
		Records:    records,
		ASDB:       testASDB(t),
		HTTP: map[string]HTTPInfo{
			"10.0.0.1": {HTTP: true, Scripting: true},
			"20.0.0.2": {HTTP: true},
		},
	}
}

func TestFunnel(t *testing.T) {
	f := observeAll(t, buildInput(t)).Funnel(1000)
	if f.IPsScanned != 1000 || f.OpenPort21 != 9 || f.FTPServers != 8 || f.AnonServers != 5 {
		t.Errorf("funnel: %+v", f)
	}
	if f.PctAnonymous < 62 || f.PctAnonymous > 63 {
		t.Errorf("pct anonymous = %v", f.PctAnonymous)
	}
}

func TestClassification(t *testing.T) {
	c := observeAll(t, buildInput(t)).Classification()
	byName := map[string]CategoryCount{}
	for _, row := range c.Rows {
		byName[row.Name] = row
	}
	if byName["Hosted Server"].All != 1 {
		t.Errorf("hosted: %+v", byName["Hosted Server"])
	}
	if byName["Embedded Server"].All != 2 {
		t.Errorf("embedded: %+v", byName["Embedded Server"])
	}
	if byName["Unknown"].All != 1 {
		t.Errorf("unknown: %+v", byName["Unknown"])
	}
	// proftpd + filezilla + ramnit + vsftpd = 4 generic.
	if byName["Generic Server"].All != 4 {
		t.Errorf("generic: %+v", byName["Generic Server"])
	}
	if c.TotalFTP != 8 || c.TotalAnon != 5 {
		t.Errorf("totals: %d/%d", c.TotalFTP, c.TotalAnon)
	}
}

func TestDevices(t *testing.T) {
	d := observeAll(t, buildInput(t)).Devices()
	if len(d.Consumer) != 1 || d.Consumer[0].Model != "QNAP Turbo NAS" || d.Consumer[0].Found != 2 || d.Consumer[0].Anon != 1 {
		t.Errorf("consumer: %+v", d.Consumer)
	}
	if len(d.Classes) != 1 || d.Classes[0].Model != "NAS" || d.Classes[0].Found != 2 {
		t.Errorf("classes: %+v", d.Classes)
	}
}

func TestExposure(t *testing.T) {
	e := observeAll(t, buildInput(t)).Exposure()
	if e.AnonServers != 5 || e.ExposingServers != 4 {
		t.Errorf("exposure counts: anon=%d exposing=%d", e.AnonServers, e.ExposingServers)
	}
	if e.IndexHTMLFiles != 1 || e.IndexHTMLServers != 1 {
		t.Errorf("index.html: %d/%d", e.IndexHTMLFiles, e.IndexHTMLServers)
	}
	if e.PhotoFiles != 2 || e.PhotoServers != 1 {
		t.Errorf("photos: %d files / %d servers", e.PhotoFiles, e.PhotoServers)
	}
	if e.OSRootLinux != 1 || e.OSRootWindows != 0 {
		t.Errorf("os roots: %d/%d", e.OSRootLinux, e.OSRootWindows)
	}
	if e.HtaccessFiles != 1 || e.ScriptFiles < 3 {
		t.Errorf("scripting: htaccess=%d scripts=%d", e.HtaccessFiles, e.ScriptFiles)
	}
	if e.RobotsSeen != 1 || e.RobotsExcludeAll != 1 {
		t.Errorf("robots: %d/%d", e.RobotsSeen, e.RobotsExcludeAll)
	}

	bySens := map[string]SensitiveClass{}
	for _, s := range e.Sensitive {
		bySens[s.Name] = s
	}
	if s := bySens[".pst files"]; s.Servers != 1 || s.Files != 1 || s.Readable != 1 {
		t.Errorf("pst: %+v", s)
	}
	if s := bySens["SSH host private keys"]; s.Files != 1 || s.NonReadable != 1 {
		t.Errorf("ssh keys: %+v", s)
	}
	if s := bySens["TurboTax Export"]; s.Servers != 1 {
		t.Errorf("turbotax: %+v", s)
	}
	if s := bySens["KeePass/KeePassX"]; s.Files != 1 {
		t.Errorf("keepass: %+v", s)
	}

	// Extensions only count SOHO devices (the QNAP).
	extByName := map[string]ExtensionCount{}
	for _, x := range e.Extensions {
		extByName[x.Ext] = x
	}
	if x := extByName[".jpg"]; x.Files != 2 || x.Servers != 1 {
		t.Errorf("jpg extension: %+v", x)
	}
	if _, ok := extByName[".html"]; ok {
		t.Error("hosting files leaked into SOHO extension table")
	}
}

func TestExposureByDevice(t *testing.T) {
	x := observeAll(t, buildInput(t)).ExposureByDevice()
	// Two sensitive-document servers: the QNAP NAS and the generic host
	// whose exposed /etc/shadow also counts.
	if x.Totals["Sensitive Documents"] != 2 {
		t.Errorf("sensitive total: %+v", x.Totals)
	}
	if x.Rows["Sensitive Documents"]["NAS"] != 50 || x.Rows["Sensitive Documents"]["Generic"] != 50 {
		t.Errorf("sensitive by device: %+v", x.Rows["Sensitive Documents"])
	}
	if x.Rows["Root File Systems"]["Generic"] != 100 {
		t.Errorf("os-root by device: %+v", x.Rows["Root File Systems"])
	}
	if x.Totals["All"] < 3 {
		t.Errorf("all total: %+v", x.Totals)
	}
}

func TestASConcentration(t *testing.T) {
	a := observeAll(t, buildInput(t)).ASConcentration()
	if a.TotalASesAll != 2 || a.TotalASesAnon != 2 {
		t.Errorf("AS totals: %+v", a)
	}
	// Chinanet has 6 FTP hosts, home.pl 2: one AS covers 50%.
	if a.ASesForHalfAll != 1 {
		t.Errorf("ASesForHalfAll = %d", a.ASesForHalfAll)
	}
	if len(a.CDFAll) != 2 || a.CDFAll[1] != 1.0 {
		t.Errorf("CDF: %+v", a.CDFAll)
	}
	if a.TypeBreakdownAll[asdb.TypeISP] != 1 {
		t.Errorf("type breakdown: %+v", a.TypeBreakdownAll)
	}
}

func TestTopASes(t *testing.T) {
	top := observeAll(t, buildInput(t)).TopASes(10)
	if len(top) != 2 {
		t.Fatalf("top ASes: %+v", top)
	}
	// Chinanet has 3 anon, home.pl 2.
	if top[0].Number != 4134 || top[0].AnonServers != 3 {
		t.Errorf("top[0]: %+v", top[0])
	}
	if top[1].Number != 12824 || top[1].FTPServers != 2 {
		t.Errorf("top[1]: %+v", top[1])
	}
}

func TestMalicious(t *testing.T) {
	m := observeAll(t, buildInput(t)).Malicious()
	if m.WritableServers != 2 || m.WritableASes != 2 {
		t.Errorf("writable: %d servers %d ASes", m.WritableServers, m.WritableASes)
	}
	if m.RATFiles != 1 || m.RATServers != 1 {
		t.Errorf("RATs: %d/%d", m.RATFiles, m.RATServers)
	}
	if m.DDoSServers != 1 {
		t.Errorf("ddos: %d", m.DDoSServers)
	}
	if m.HolyBibleServers != 1 || m.HolyBiblePctWritable != 100 {
		t.Errorf("holy bible: %d (%.1f%%)", m.HolyBibleServers, m.HolyBiblePctWritable)
	}
	if m.WaReZServers != 1 {
		t.Errorf("warez: %d", m.WaReZServers)
	}
	if m.RamnitServers != 1 {
		t.Errorf("ramnit: %d", m.RamnitServers)
	}
	if m.HTTPOverlap != 2 || m.ScriptingOverlap != 1 {
		t.Errorf("http overlap: %d/%d", m.HTTPOverlap, m.ScriptingOverlap)
	}
}

func TestCVEs(t *testing.T) {
	c := observeAll(t, buildInput(t)).CVEs()
	byID := map[string]CVECount{}
	for _, row := range c.Rows {
		byID[row.ID] = row
	}
	// ProFTPD 1.3.2 plus the two QNAP devices (rebranded ProFTPD 1.3.1e)
	// match the three old ProFTPD CVEs.
	for _, id := range []string{"CVE-2012-6095", "CVE-2011-4130", "CVE-2011-1137"} {
		if byID[id].IPs != 3 {
			t.Errorf("%s: %+v", id, byID[id])
		}
	}
	// vsFTPd 2.3.2 matches both vsftpd CVEs.
	if byID["CVE-2015-1419"].IPs != 1 || byID["CVE-2011-0762"].IPs != 1 {
		t.Errorf("vsftpd rows: %+v", byID)
	}
	// home.pl banner has no version → no match; vulnerable = proftpd +
	// 2 QNAPs + vsftpd.
	if c.VulnerableIPs != 4 {
		t.Errorf("vulnerable IPs = %d", c.VulnerableIPs)
	}
}

func TestPortBounce(t *testing.T) {
	b := observeAll(t, buildInput(t)).PortBounce()
	if b.Tested != 4 || b.NotValidated != 2 {
		t.Errorf("bounce: %+v", b)
	}
	if b.PctNotValidated != 50 {
		t.Errorf("pct: %v", b.PctNotValidated)
	}
	if b.HomePLShare != 50 {
		t.Errorf("home.pl share: %v", b.HomePLShare)
	}
	if b.NATed != 1 || b.NATedNotValidated != 0 {
		t.Errorf("NAT: %d/%d", b.NATed, b.NATedNotValidated)
	}
	if b.WritableNotValidated != 2 {
		t.Errorf("writable+bounce: %d", b.WritableNotValidated)
	}
	if b.FileZillaServers != 1 {
		t.Errorf("filezilla: %d", b.FileZillaServers)
	}
}

func TestFTPS(t *testing.T) {
	f := observeAll(t, buildInput(t)).FTPS(10)
	if f.Supported != 3 || f.UniqueCerts != 2 {
		t.Errorf("ftps: supported=%d unique=%d", f.Supported, f.UniqueCerts)
	}
	if f.SelfSigned != 2 {
		t.Errorf("self-signed: %d", f.SelfSigned)
	}
	if len(f.TopCerts) != 2 || f.TopCerts[0].CommonName != "QNAP NAS" || f.TopCerts[0].Servers != 2 {
		t.Errorf("top certs: %+v", f.TopCerts)
	}
	if len(f.DeviceCerts) != 1 || f.DeviceCerts[0].Device != "QNAP Turbo NAS" || f.DeviceCerts[0].Servers != 2 {
		t.Errorf("device certs: %+v", f.DeviceCerts)
	}
}

func TestEmptyInput(t *testing.T) {
	agg := NewAggregator(nil, nil)
	if f := agg.Funnel(0); f.OpenPort21 != 0 || f.PctAnonymous != 0 {
		t.Errorf("empty funnel: %+v", f)
	}
	if c := agg.Classification(); c.TotalFTP != 0 {
		t.Errorf("empty classification: %+v", c)
	}
	if a := agg.ASConcentration(); a.ASesForHalfAll != 0 {
		t.Errorf("empty concentration: %+v", a)
	}
	if f := agg.FTPS(5); f.Supported != 0 || f.PctSupported != 0 {
		t.Errorf("empty ftps: %+v", f)
	}
}
