// Package notify implements the paper's disclosure step: "We are working
// to notify responsible entities in likely instances of sensitive
// information disclosure." It groups census findings by autonomous system
// and renders operator-facing notification reports, the way large
// measurement groups batch abuse notifications per network.
//
// Finding text deliberately names only categories and counts, never file
// paths — the paper declined to publish anything that would make retrieval
// trivial, and so does this generator.
package notify

import (
	"fmt"
	"sort"
	"strings"

	"ftpcloud/internal/asdb"
	"ftpcloud/internal/cvedb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/simnet"
)

// Kind classifies a finding.
type Kind string

// Finding kinds.
const (
	KindSensitiveExposure Kind = "sensitive-exposure"
	KindWorldWritable     Kind = "world-writable"
	KindInfected          Kind = "infected"
	KindBounceVulnerable  Kind = "port-bounce"
	KindKnownCVE          Kind = "known-cve"
)

// Finding is one per-host issue worth notifying about.
type Finding struct {
	IP     string
	Kind   Kind
	Detail string
}

// Notice is the per-AS notification.
type Notice struct {
	ASNumber uint32
	ASName   string
	// Contact is the synthesized abuse address for the simulated AS.
	Contact  string
	Findings []Finding
}

// sensitiveClasses maps filename predicates to category labels; only
// category names ever appear in notices.
func sensitiveCategory(name string) string {
	lower := strings.ToLower(name)
	switch {
	case strings.HasSuffix(lower, ".pst"):
		return "email archives"
	case strings.HasSuffix(lower, ".qdf"), strings.HasSuffix(lower, ".txf"):
		return "financial records"
	case strings.HasSuffix(lower, ".kdbx"), strings.HasSuffix(lower, ".kdb"),
		strings.Contains(lower, "agilekeychain"):
		return "password databases"
	case strings.Contains(lower, "ssh_host_") && !strings.HasSuffix(lower, ".pub"),
		strings.HasSuffix(lower, ".ppk"),
		strings.HasSuffix(lower, ".pem") && strings.Contains(lower, "priv"):
		return "cryptographic key material"
	case lower == "shadow" || strings.HasPrefix(lower, "shadow."):
		return "system password files"
	default:
		return ""
	}
}

// Builder folds census records into per-AS notices. It implements
// dataset.Sink, so a census tees it beside its ledger and streams every
// record through it once; only the findings are kept, never the records.
// Observe follows the Sink contract: one goroutine at a time.
type Builder struct {
	db   *asdb.DB
	byAS map[*asdb.AS][]Finding
}

// NewBuilder returns a Builder that attributes findings to ASes in db.
func NewBuilder(db *asdb.DB) *Builder {
	return &Builder{db: db, byAS: map[*asdb.AS][]Finding{}}
}

// Observe folds one record's findings into its AS's notice. Hosts that did
// not speak FTP, or whose address no AS announces, contribute nothing.
func (b *Builder) Observe(rec *dataset.HostRecord) error {
	if !rec.FTP || b.db == nil {
		return nil
	}
	ip, err := simnet.ParseIP(rec.IP)
	if err != nil {
		return nil
	}
	as, ok := b.db.Lookup(ip)
	if !ok {
		return nil
	}
	add := func(kind Kind, detail string) {
		b.byAS[as] = append(b.byAS[as], Finding{IP: rec.IP, Kind: kind, Detail: detail})
	}

	if rec.AnonymousOK {
		cats := map[string]int{}
		for i := range rec.Files {
			if rec.Files[i].IsDir {
				continue
			}
			if cat := sensitiveCategory(rec.Files[i].Name); cat != "" {
				cats[cat]++
			}
		}
		if len(cats) > 0 {
			var parts []string
			for _, cat := range sortedKeys(cats) {
				parts = append(parts, fmt.Sprintf("%s (%d files)", cat, cats[cat]))
			}
			add(KindSensitiveExposure, "anonymous FTP exposes "+strings.Join(parts, ", "))
		}
		if len(rec.WriteEvidence) > 0 {
			add(KindWorldWritable,
				fmt.Sprintf("anonymous uploads enabled; %d known abuse-campaign artifacts present", len(rec.WriteEvidence)))
		}
		if rec.PortCheck == dataset.PortNotValidated {
			add(KindBounceVulnerable, "server relays data connections to third parties (FTP bounce)")
		}
	}

	c := fingerprint.Classify(rec)
	if matches := cvedb.Match(c.Software, c.Version); len(matches) > 0 {
		top := matches[0]
		for _, m := range matches[1:] {
			if m.CVSS > top.CVSS {
				top = m
			}
		}
		add(KindKnownCVE, fmt.Sprintf("%s %s banner matches %s (CVSS %.1f)",
			c.Software, c.Version, top.ID, top.CVSS))
	}
	return nil
}

// Close implements dataset.Sink; Notices keeps working after it.
func (b *Builder) Close() error { return nil }

// Notices returns one notice per AS with findings: findings ordered by IP
// and kind, notices by descending finding count and then AS number, so the
// output is the same whatever order the records arrived in.
func (b *Builder) Notices() []Notice {
	notices := make([]Notice, 0, len(b.byAS))
	for as, findings := range b.byAS {
		sort.Slice(findings, func(i, j int) bool {
			if findings[i].IP != findings[j].IP {
				return findings[i].IP < findings[j].IP
			}
			return findings[i].Kind < findings[j].Kind
		})
		notices = append(notices, Notice{
			ASNumber: as.Number,
			ASName:   as.Name,
			Contact:  fmt.Sprintf("abuse@as%d.example.net", as.Number),
			Findings: findings,
		})
	}
	sort.Slice(notices, func(i, j int) bool {
		if len(notices[i].Findings) != len(notices[j].Findings) {
			return len(notices[i].Findings) > len(notices[j].Findings)
		}
		return notices[i].ASNumber < notices[j].ASNumber
	})
	return notices
}

// Render formats one notice as an operator-facing report.
func Render(n Notice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "To: %s\n", n.Contact)
	fmt.Fprintf(&b, "Subject: FTP security findings in AS%d (%s)\n\n", n.ASNumber, n.ASName)
	fmt.Fprintf(&b, "During a research survey of the FTP ecosystem we observed %d\n", len(n.Findings))
	fmt.Fprintf(&b, "issue(s) on hosts announced by your network. File paths are withheld;\n")
	fmt.Fprintf(&b, "please contact us to coordinate remediation details.\n\n")
	for _, f := range n.Findings {
		fmt.Fprintf(&b, "  %-15s [%s] %s\n", f.IP, f.Kind, f.Detail)
	}
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
