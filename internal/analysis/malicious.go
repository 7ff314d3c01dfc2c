package analysis

import (
	"sort"
	"strings"

	"ftpcloud/internal/campaigns"
	"ftpcloud/internal/dataset"
)

// CampaignHit is per-campaign prevalence.
type CampaignHit struct {
	Key     string
	Name    string
	Servers int
	Files   int
}

// Malicious aggregates §VI: world-writability evidence and the campaigns
// found on anonymous servers.
type Malicious struct {
	// WritableServers / WritableASes mirror "19.4K servers in 3.4K ASes
	// appear to be world-writable".
	WritableServers int
	WritableASes    int
	// AnonUploadConfirmed counts servers that confirmed anonymous
	// uploads via the Pure-FTPd RETR refusal (§VI.A's first evidence
	// type).
	AnonUploadConfirmed int
	// Campaigns is per-campaign prevalence, sorted by server count.
	Campaigns []CampaignHit
	// RATFiles / RATServers mirror "6K RAT related files on 724 servers".
	RATFiles   int
	RATServers int
	// DDoSServers mirrors the history.php/phzLtoxn.php total (1,792).
	DDoSServers int
	// HolyBibleServers and the fraction that also carry write evidence
	// (paper: 1,131 servers, 55.35%).
	HolyBibleServers     int
	HolyBiblePctWritable float64
	// WaReZServers mirrors the timestamped-directory campaign (4,868).
	WaReZServers int
	// RamnitServers counts the botnet's banner (1,051).
	RamnitServers int
	// HTTPOverlap / ScriptingOverlap are the Censys-join statistics:
	// FTP hosts that also run a web server / advertise scripting.
	HTTPOverlap      int
	ScriptingOverlap int
	TotalFTP         int
}

// MaliciousAcc accumulates §VI. The zero value is ready.
type MaliciousAcc struct {
	writableServers     int
	anonUploadConfirmed int
	ratFiles            int
	ratServers          int
	ddosServers         int
	holyBibleServers    int
	holyBibleWritable   int
	warezServers        int
	ramnitServers       int
	httpOverlap         int
	scriptingOverlap    int
	totalFTP            int

	// writableASes keys on the AS number — plain data, so snapshots of two
	// accumulators merge as a set union.
	writableASes map[uint32]bool
	campServers  map[string]int
	campFiles    map[string]int
}

// Observe folds one record.
func (a *MaliciousAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP {
		return
	}
	a.totalFTP++
	if info, ok := r.HTTP(); ok && info.HTTP {
		a.httpOverlap++
		if info.Scripting {
			a.scriptingOverlap++
		}
	}
	if r.Class().Ramnit {
		a.ramnitServers++
	}
	if !host.AnonymousOK {
		return
	}
	if a.writableASes == nil {
		a.writableASes = map[uint32]bool{}
		a.campServers = map[string]int{}
		a.campFiles = map[string]int{}
	}

	if Writable(host) {
		a.writableServers++
		if as := r.AS(); as != nil {
			a.writableASes[as.Number] = true
		}
	}
	if host.AnonUploadConfirmed {
		a.anonUploadConfirmed++
	}

	seenHere := map[string]bool{}
	ratSeen := false
	warezSeen := false
	for i := range host.Files {
		f := &host.Files[i]
		if f.IsDir {
			if campaigns.IsWaReZDir(f.Name) {
				warezSeen = true
			}
			continue
		}
		for _, key := range campaigns.DetectFilename(f.Name) {
			a.campFiles[key]++
			if !seenHere[key] {
				seenHere[key] = true
				a.campServers[key]++
			}
			if key == campaigns.KeyRATEval {
				a.ratFiles++
				ratSeen = true
			}
		}
	}
	if ratSeen {
		a.ratServers++
	}
	if warezSeen {
		a.warezServers++
		if !seenHere[campaigns.KeyWaReZ] {
			a.campServers[campaigns.KeyWaReZ]++
		}
	}
	if seenHere[campaigns.KeyDDoSHistory] || seenHere[campaigns.KeyDDoSPhzLtoxn] {
		a.ddosServers++
	}
	if hasHolyBible(host) {
		a.holyBibleServers++
		if Writable(host) {
			a.holyBibleWritable++
		}
	}
}

// MaliciousSnap is the serializable state of a MaliciousAcc.
type MaliciousSnap struct {
	WritableServers, AnonUploadConfirmed          int
	RATFiles, RATServers, DDoSServers             int
	HolyBibleServers, HolyBibleWritable           int
	WarezServers, RamnitServers                   int
	HTTPOverlap, ScriptingOverlap, TotalFTP       int
	// WritableASes is the writable-AS set as a sorted slice, so a given
	// accumulator state has one canonical snapshot.
	WritableASes []uint32
	CampServers  map[string]int
	CampFiles    map[string]int
}

// Snapshot captures the accumulator as plain data.
func (a *MaliciousAcc) Snapshot() MaliciousSnap {
	s := MaliciousSnap{
		WritableServers:     a.writableServers,
		AnonUploadConfirmed: a.anonUploadConfirmed,
		RATFiles:            a.ratFiles,
		RATServers:          a.ratServers,
		DDoSServers:         a.ddosServers,
		HolyBibleServers:    a.holyBibleServers,
		HolyBibleWritable:   a.holyBibleWritable,
		WarezServers:        a.warezServers,
		RamnitServers:       a.ramnitServers,
		HTTPOverlap:         a.httpOverlap,
		ScriptingOverlap:    a.scriptingOverlap,
		TotalFTP:            a.totalFTP,
		CampServers:         copyCounts(a.campServers),
		CampFiles:           copyCounts(a.campFiles),
	}
	for n := range a.writableASes {
		s.WritableASes = append(s.WritableASes, n)
	}
	sort.Slice(s.WritableASes, func(i, j int) bool { return s.WritableASes[i] < s.WritableASes[j] })
	return s
}

// Merge folds a snapshot of another accumulator into this one.
func (a *MaliciousAcc) Merge(s MaliciousSnap) {
	a.writableServers += s.WritableServers
	a.anonUploadConfirmed += s.AnonUploadConfirmed
	a.ratFiles += s.RATFiles
	a.ratServers += s.RATServers
	a.ddosServers += s.DDoSServers
	a.holyBibleServers += s.HolyBibleServers
	a.holyBibleWritable += s.HolyBibleWritable
	a.warezServers += s.WarezServers
	a.ramnitServers += s.RamnitServers
	a.httpOverlap += s.HTTPOverlap
	a.scriptingOverlap += s.ScriptingOverlap
	a.totalFTP += s.TotalFTP
	if len(s.WritableASes)+len(s.CampServers)+len(s.CampFiles) == 0 {
		return
	}
	if a.writableASes == nil {
		a.writableASes = map[uint32]bool{}
		a.campServers = map[string]int{}
		a.campFiles = map[string]int{}
	}
	for _, n := range s.WritableASes {
		a.writableASes[n] = true
	}
	addCounts(a.campServers, s.CampServers)
	addCounts(a.campFiles, s.CampFiles)
}

// Finalize produces §VI.
func (a *MaliciousAcc) Finalize() Malicious {
	m := Malicious{
		WritableServers:     a.writableServers,
		WritableASes:        len(a.writableASes),
		AnonUploadConfirmed: a.anonUploadConfirmed,
		RATFiles:            a.ratFiles,
		RATServers:          a.ratServers,
		DDoSServers:         a.ddosServers,
		HolyBibleServers:    a.holyBibleServers,
		WaReZServers:        a.warezServers,
		RamnitServers:       a.ramnitServers,
		HTTPOverlap:         a.httpOverlap,
		ScriptingOverlap:    a.scriptingOverlap,
		TotalFTP:            a.totalFTP,
	}
	m.HolyBiblePctWritable = percent(a.holyBibleWritable, a.holyBibleServers)
	for key, n := range a.campServers {
		c := campaigns.ByKey(key)
		name := key
		if c != nil {
			name = c.Name
		}
		m.Campaigns = append(m.Campaigns, CampaignHit{
			Key: key, Name: name, Servers: n, Files: a.campFiles[key],
		})
	}
	sort.Slice(m.Campaigns, func(i, j int) bool {
		if m.Campaigns[i].Servers != m.Campaigns[j].Servers {
			return m.Campaigns[i].Servers > m.Campaigns[j].Servers
		}
		return m.Campaigns[i].Key < m.Campaigns[j].Key
	})
	return m
}

func hasHolyBible(r *dataset.HostRecord) bool {
	for i := range r.Files {
		if strings.EqualFold(r.Files[i].Name, "Holy-Bible.html") {
			return true
		}
	}
	return false
}
