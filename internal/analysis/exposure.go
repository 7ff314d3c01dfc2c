package analysis

import (
	"regexp"
	"sort"
	"strings"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/personality"
)

// ExtensionCount is one Table VIII row.
type ExtensionCount struct {
	Ext     string
	Files   int
	Servers int
}

// SensitiveClass is one Table IX row.
type SensitiveClass struct {
	Type        string // "Financial Information", "Password Databases", ...
	Name        string // "TurboTax Export", ...
	Servers     int
	Files       int
	Readable    int
	NonReadable int
	UnkReadable int
}

// Exposure aggregates §V: what anonymous FTP leaks.
type Exposure struct {
	// Extensions is Table VIII, computed over identified SOHO devices.
	Extensions []ExtensionCount
	// Sensitive is Table IX.
	Sensitive []SensitiveClass
	// IndexHTMLFiles/Servers mirror the "index.html is the most common
	// file" observation.
	IndexHTMLFiles   int
	IndexHTMLServers int
	// Photo library stats.
	PhotoFiles    int
	PhotoReadable int
	PhotoServers  int
	// OS-root exposure counts.
	OSRootLinux   int
	OSRootWindows int
	// Scripting-source exposure.
	HtaccessFiles   int
	HtaccessServers int
	ScriptFiles     int
	ScriptServers   int
	// ExposingServers counts anonymous servers listing any entry at all
	// ("24% exposed some form of data").
	ExposingServers int
	AnonServers     int
	// RobotsSeen / RobotsExcludeAll mirror the robots.txt adoption stats.
	RobotsSeen       int
	RobotsExcludeAll int
	// Truncated counts hosts whose tree exceeded the request cap.
	Truncated int
}

// ExposureByDevice is Table X: which device classes account for each
// exposure type. Percentages are of servers showing that exposure.
type ExposureByDevice struct {
	// Rows map exposure type → class name → percentage.
	Rows map[string]map[string]float64
	// Totals is the number of servers per exposure type.
	Totals map[string]int
}

var photoNamePattern = regexp.MustCompile(`^(?i)(DSC|DSCN|IMG|IMGP|P|PICT)[-_]?\d{3,}\.(jpe?g)$`)

var scriptExtensions = map[string]bool{
	"php": true, "asp": true, "aspx": true, "jsp": true, "cgi": true, "pl": true,
}

// sensitiveMatcher classifies a filename into a Table IX class.
type sensitiveMatcher struct {
	typ, name string
	match     func(name, lower string) bool
}

var sensitiveMatchers = []sensitiveMatcher{
	{"Financial Information", "TurboTax Export", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".txf") || strings.Contains(lower, "turbotax")
	}},
	{"Financial Information", "Quicken Data", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".qdf")
	}},
	{"Password Databases", "KeePass/KeePassX", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".kdbx") || strings.HasSuffix(lower, ".kdb")
	}},
	{"Password Databases", "1Password", func(name, lower string) bool {
		return strings.Contains(lower, "agilekeychain")
	}},
	{"Key Material", "SSH host private keys", func(name, lower string) bool {
		return strings.Contains(lower, "ssh_host_") && !strings.HasSuffix(lower, ".pub")
	}},
	{"Key Material", "Putty SSH client keys", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".ppk")
	}},
	{"Key Material", `"priv" .pem files`, func(name, lower string) bool {
		return strings.HasSuffix(lower, ".pem") && strings.Contains(lower, "priv")
	}},
	{"Other", "shadow files", func(name, lower string) bool {
		return lower == "shadow" || strings.HasPrefix(lower, "shadow.")
	}},
	{"Other", ".pst files", func(name, lower string) bool {
		return strings.HasSuffix(lower, ".pst")
	}},
}

// linuxRootMarkers / windowsRootMarkers follow §V's detection method.
var (
	linuxRootMarkers   = []string{"/bin", "/var", "/boot", "/etc"}
	windowsRootMarkers = [][]string{
		{"/Windows", "/Program Files", "/Users"},
		{"/WINDOWS", "/Program Files", "/Documents and Settings"},
	}
)

// exposureTypes is Table X's row set (plus the derived "All" row).
var exposureTypes = []string{
	"Sensitive Documents", "Photo Libraries", "Root File Systems", "Scripting Source",
}

// exposureClassOf maps a classification to Table X's column set.
func exposureClassOf(c fingerprint.Classification) string {
	switch {
	case !c.Known():
		return "Unk"
	case c.Category == personality.CategoryHosted:
		return "Hosting"
	case c.Category == personality.CategoryGeneric:
		return "Generic"
	case c.DeviceClass == personality.DeviceNAS || c.DeviceClass == personality.DeviceStorage:
		return "NAS"
	case c.DeviceClass == personality.DeviceHomeRouter:
		return "Router"
	default:
		return "Other Embedded"
	}
}

// ExposureAcc accumulates §V plus Table X in one pass. Unlike the old
// slice-path implementation it keeps no per-server record sets — each
// record's exposure types and device class are resolved while the record
// is hot, so only counters survive and the listing memory can be freed.
// The zero value is ready.
type ExposureAcc struct {
	exp Exposure

	extFiles   map[string]int
	extServers map[string]int
	sens       map[string]*SensitiveClass

	// Table X: exposure type → device class → server count.
	typeClasses map[string]map[string]int
	typeTotals  map[string]int
}

func (a *ExposureAcc) init() {
	a.extFiles = map[string]int{}
	a.extServers = map[string]int{}
	a.sens = map[string]*SensitiveClass{}
	for _, m := range sensitiveMatchers {
		a.sens[m.name] = &SensitiveClass{Type: m.typ, Name: m.name}
	}
	a.typeClasses = map[string]map[string]int{}
	a.typeTotals = map[string]int{}
}

// Observe folds one record.
func (a *ExposureAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP || !host.AnonymousOK {
		return
	}
	if a.sens == nil {
		a.init()
	}
	e := &a.exp
	e.AnonServers++
	if host.RobotsTxt != "" {
		e.RobotsSeen++
		if host.RobotsExcludeAll {
			e.RobotsExcludeAll++
		}
	}
	if host.ListingTruncated {
		e.Truncated++
	}
	if len(host.Files) == 0 {
		return
	}
	e.ExposingServers++

	c := r.Class()
	isSOHO := c.Category == personality.CategoryEmbedded && !c.ProviderDeployed

	dirs := map[string]bool{}
	indexSeen, photoSeen := false, false
	scriptSeen, htaccessSeen := false, false
	sensSeen := map[string]bool{}
	var extSeen map[string]bool
	if isSOHO {
		extSeen = map[string]bool{}
	}

	for i := range host.Files {
		f := &host.Files[i]
		if f.IsDir {
			dirs[f.Path] = true
			continue
		}
		lower := strings.ToLower(f.Name)

		if isSOHO {
			if dot := strings.LastIndexByte(lower, '.'); dot >= 0 && dot < len(lower)-1 {
				ext := "." + lower[dot+1:]
				a.extFiles[ext]++
				if !extSeen[ext] {
					extSeen[ext] = true
					a.extServers[ext]++
				}
			}
		}

		if lower == "index.html" {
			e.IndexHTMLFiles++
			indexSeen = true
		}
		if photoNamePattern.MatchString(f.Name) {
			e.PhotoFiles++
			if f.Read == dataset.ReadYes || f.Read == dataset.ReadUnknown {
				e.PhotoReadable++
			}
			photoSeen = true
		}
		if lower == ".htaccess" {
			e.HtaccessFiles++
			htaccessSeen = true
		}
		if dot := strings.LastIndexByte(lower, '.'); dot >= 0 {
			if scriptExtensions[lower[dot+1:]] {
				e.ScriptFiles++
				scriptSeen = true
			}
		}

		for _, m := range sensitiveMatchers {
			if !m.match(f.Name, lower) {
				continue
			}
			sc := a.sens[m.name]
			sc.Files++
			switch f.Read {
			case dataset.ReadYes:
				sc.Readable++
			case dataset.ReadNo:
				sc.NonReadable++
			default:
				sc.UnkReadable++
			}
			if !sensSeen[m.name] {
				sensSeen[m.name] = true
				sc.Servers++
			}
			break
		}
	}

	if indexSeen {
		e.IndexHTMLServers++
	}
	if photoSeen {
		e.PhotoServers++
	}
	if scriptSeen {
		e.ScriptServers++
	}
	if htaccessSeen {
		e.HtaccessServers++
	}

	osRootSeen := false
	if countMarkers(dirs, linuxRootMarkers) >= 3 {
		e.OSRootLinux++
		osRootSeen = true
	} else {
		for _, markers := range windowsRootMarkers {
			if countMarkers(dirs, markers) >= 2 {
				e.OSRootWindows++
				osRootSeen = true
				break
			}
		}
	}

	// Table X: record which exposure types this server exhibits, bucketed
	// by its device class, while the classification is still at hand.
	exhibited := map[string]bool{
		"Sensitive Documents": len(sensSeen) > 0,
		"Photo Libraries":     photoSeen,
		"Root File Systems":   osRootSeen,
		"Scripting Source":    scriptSeen || htaccessSeen,
	}
	any := false
	cls := exposureClassOf(c)
	for _, typ := range exposureTypes {
		if !exhibited[typ] {
			continue
		}
		any = true
		a.bumpType(typ, cls)
	}
	if any {
		a.bumpType("All", cls)
	}
}

func (a *ExposureAcc) bumpType(typ, cls string) {
	m, ok := a.typeClasses[typ]
	if !ok {
		m = map[string]int{}
		a.typeClasses[typ] = m
	}
	m[cls]++
	a.typeTotals[typ]++
}

// ExposureSnap is the serializable state of an ExposureAcc. Exp carries
// only the counter fields — the Extensions/Sensitive slices are derived at
// Finalize and never populated in the accumulator.
type ExposureSnap struct {
	Exp         Exposure
	ExtFiles    map[string]int
	ExtServers  map[string]int
	Sens        map[string]SensitiveClass
	TypeClasses map[string]map[string]int
	TypeTotals  map[string]int
}

// Snapshot captures the accumulator as plain data.
func (a *ExposureAcc) Snapshot() ExposureSnap {
	s := ExposureSnap{
		Exp:        a.exp,
		ExtFiles:   copyCounts(a.extFiles),
		ExtServers: copyCounts(a.extServers),
		TypeTotals: copyCounts(a.typeTotals),
	}
	if a.sens != nil {
		s.Sens = make(map[string]SensitiveClass, len(a.sens))
		for name, sc := range a.sens {
			s.Sens[name] = *sc
		}
	}
	if a.typeClasses != nil {
		s.TypeClasses = make(map[string]map[string]int, len(a.typeClasses))
		for typ, m := range a.typeClasses {
			s.TypeClasses[typ] = copyCounts(m)
		}
	}
	return s
}

// Merge folds a snapshot of another accumulator into this one.
func (a *ExposureAcc) Merge(s ExposureSnap) {
	e := &a.exp
	o := s.Exp
	e.AnonServers += o.AnonServers
	e.ExposingServers += o.ExposingServers
	e.IndexHTMLFiles += o.IndexHTMLFiles
	e.IndexHTMLServers += o.IndexHTMLServers
	e.PhotoFiles += o.PhotoFiles
	e.PhotoReadable += o.PhotoReadable
	e.PhotoServers += o.PhotoServers
	e.OSRootLinux += o.OSRootLinux
	e.OSRootWindows += o.OSRootWindows
	e.HtaccessFiles += o.HtaccessFiles
	e.HtaccessServers += o.HtaccessServers
	e.ScriptFiles += o.ScriptFiles
	e.ScriptServers += o.ScriptServers
	e.RobotsSeen += o.RobotsSeen
	e.RobotsExcludeAll += o.RobotsExcludeAll
	e.Truncated += o.Truncated
	if len(s.ExtFiles)+len(s.ExtServers)+len(s.Sens)+len(s.TypeClasses)+len(s.TypeTotals) == 0 {
		return
	}
	if a.sens == nil {
		a.init()
	}
	addCounts(a.extFiles, s.ExtFiles)
	addCounts(a.extServers, s.ExtServers)
	for name, src := range s.Sens {
		sc, ok := a.sens[name]
		if !ok {
			sc = &SensitiveClass{Type: src.Type, Name: src.Name}
			a.sens[name] = sc
		}
		sc.Servers += src.Servers
		sc.Files += src.Files
		sc.Readable += src.Readable
		sc.NonReadable += src.NonReadable
		sc.UnkReadable += src.UnkReadable
	}
	for typ, src := range s.TypeClasses {
		m, ok := a.typeClasses[typ]
		if !ok {
			m = map[string]int{}
			a.typeClasses[typ] = m
		}
		addCounts(m, src)
	}
	addCounts(a.typeTotals, s.TypeTotals)
}

// Finalize produces Tables VIII/IX and §V's prose statistics.
func (a *ExposureAcc) Finalize() Exposure {
	e := a.exp
	e.Extensions = nil
	for ext, n := range a.extFiles {
		e.Extensions = append(e.Extensions, ExtensionCount{
			Ext: ext, Files: n, Servers: a.extServers[ext],
		})
	}
	sort.Slice(e.Extensions, func(i, j int) bool {
		if e.Extensions[i].Files != e.Extensions[j].Files {
			return e.Extensions[i].Files > e.Extensions[j].Files
		}
		return e.Extensions[i].Ext < e.Extensions[j].Ext
	})
	e.Sensitive = nil
	for _, m := range sensitiveMatchers {
		if sc, ok := a.sens[m.name]; ok {
			e.Sensitive = append(e.Sensitive, *sc)
		} else {
			e.Sensitive = append(e.Sensitive, SensitiveClass{Type: m.typ, Name: m.name})
		}
	}
	return e
}

// FinalizeByDevice produces Table X.
func (a *ExposureAcc) FinalizeByDevice() ExposureByDevice {
	out := ExposureByDevice{
		Rows:   make(map[string]map[string]float64),
		Totals: make(map[string]int),
	}
	for _, typ := range append(append([]string{}, exposureTypes...), "All") {
		total := a.typeTotals[typ]
		row := make(map[string]float64)
		for cls, n := range a.typeClasses[typ] {
			row[cls] = percent(n, total)
		}
		out.Rows[typ] = row
		out.Totals[typ] = total
	}
	return out
}

func countMarkers(dirs map[string]bool, markers []string) int {
	n := 0
	for _, m := range markers {
		if dirs[m] {
			n++
		}
	}
	return n
}
