package analysis

import (
	"sort"
)

// CertCount is one Table XII row: one distinct certificate and its spread.
type CertCount struct {
	CommonName  string
	Fingerprint string
	Servers     int
	SelfSigned  bool
}

// DeviceCert is one Table XIII row: a device family shipping one cert.
type DeviceCert struct {
	Device     string
	CommonName string
	Servers    int
}

// FTPS aggregates §IX and Tables XII/XIII.
type FTPS struct {
	// Supported counts servers completing AUTH TLS (paper: 3.4M = 25%).
	Supported    int
	PctSupported float64
	// RequirePreLogin counts servers demanding TLS before USER (85K).
	RequirePreLogin int
	// UniqueCerts counts distinct certificates (paper: 793K across 3.4M).
	UniqueCerts int
	// SelfSigned counts servers presenting self-signed certs (50%).
	SelfSigned    int
	PctSelfSigned float64
	// TopCerts is Table XII.
	TopCerts []CertCount
	// DeviceCerts is Table XIII: certificate sharing by device families.
	DeviceCerts []DeviceCert
	TotalFTP    int
}

// certAgg tracks one distinct certificate's spread.
type certAgg struct {
	cn         string
	selfSigned bool
	servers    int
	devices    map[string]int
}

// FTPSAcc accumulates §IX and Tables XII/XIII. The zero value is ready.
type FTPSAcc struct {
	totalFTP, supported, requirePre, selfSigned int

	byFP map[string]*certAgg
}

// Observe folds one record.
func (a *FTPSAcc) Observe(r *Record) {
	host := r.Host
	if !host.FTP {
		return
	}
	a.totalFTP++
	if !host.FTPSSupported() {
		return
	}
	a.supported++
	if host.FTPS.RequiredPreLogin {
		a.requirePre++
	}
	cert := host.FTPS.Cert
	if cert == nil {
		return
	}
	if cert.SelfSigned {
		a.selfSigned++
	}
	if a.byFP == nil {
		a.byFP = map[string]*certAgg{}
	}
	agg, ok := a.byFP[cert.FingerprintSHA256]
	if !ok {
		agg = &certAgg{cn: cert.CommonName, selfSigned: cert.SelfSigned, devices: map[string]int{}}
		a.byFP[cert.FingerprintSHA256] = agg
	}
	agg.servers++
	if c := r.Class(); c.DeviceModel != "" {
		agg.devices[c.DeviceModel]++
	}
}

// CertSnap is one certificate's serializable Table XII/XIII state.
type CertSnap struct {
	CN         string
	SelfSigned bool
	Servers    int
	Devices    map[string]int
}

// FTPSSnap is the serializable state of an FTPSAcc.
type FTPSSnap struct {
	TotalFTP, Supported, RequirePre, SelfSigned int
	ByFP                                        map[string]CertSnap
}

// Snapshot captures the accumulator as plain data.
func (a *FTPSAcc) Snapshot() FTPSSnap {
	s := FTPSSnap{
		TotalFTP:   a.totalFTP,
		Supported:  a.supported,
		RequirePre: a.requirePre,
		SelfSigned: a.selfSigned,
	}
	if a.byFP != nil {
		s.ByFP = make(map[string]CertSnap, len(a.byFP))
		for fp, agg := range a.byFP {
			s.ByFP[fp] = CertSnap{
				CN:         agg.cn,
				SelfSigned: agg.selfSigned,
				Servers:    agg.servers,
				Devices:    copyCounts(agg.devices),
			}
		}
	}
	return s
}

// Merge folds a snapshot of another accumulator into this one.
func (a *FTPSAcc) Merge(s FTPSSnap) {
	a.totalFTP += s.TotalFTP
	a.supported += s.Supported
	a.requirePre += s.RequirePre
	a.selfSigned += s.SelfSigned
	if len(s.ByFP) == 0 {
		return
	}
	if a.byFP == nil {
		a.byFP = map[string]*certAgg{}
	}
	for fp, src := range s.ByFP {
		agg, ok := a.byFP[fp]
		if !ok {
			agg = &certAgg{cn: src.CN, selfSigned: src.SelfSigned, devices: map[string]int{}}
			a.byFP[fp] = agg
		}
		agg.servers += src.Servers
		addCounts(agg.devices, src.Devices)
	}
}

// Finalize produces §IX, Table XII, and Table XIII. Sort keys include the
// certificate fingerprint so tied rows order deterministically regardless
// of map iteration order — the streaming and batch paths must render
// byte-identically.
func (a *FTPSAcc) Finalize(topN int) FTPS {
	f := FTPS{
		Supported:       a.supported,
		RequirePreLogin: a.requirePre,
		SelfSigned:      a.selfSigned,
		TotalFTP:        a.totalFTP,
		UniqueCerts:     len(a.byFP),
	}
	f.PctSupported = percent(f.Supported, f.TotalFTP)
	f.PctSelfSigned = percent(f.SelfSigned, f.Supported)

	type deviceRow struct {
		row DeviceCert
		fp  string
	}
	var deviceRows []deviceRow
	for fp, agg := range a.byFP {
		f.TopCerts = append(f.TopCerts, CertCount{
			CommonName:  agg.cn,
			Fingerprint: fp,
			Servers:     agg.servers,
			SelfSigned:  agg.selfSigned,
		})
		// A certificate dominated by one device family is a shared
		// device certificate (Table XIII).
		for device, n := range agg.devices {
			if n*2 >= agg.servers && n > 1 {
				deviceRows = append(deviceRows, deviceRow{
					row: DeviceCert{Device: device, CommonName: agg.cn, Servers: n},
					fp:  fp,
				})
			}
		}
	}
	sort.Slice(f.TopCerts, func(i, j int) bool {
		if f.TopCerts[i].Servers != f.TopCerts[j].Servers {
			return f.TopCerts[i].Servers > f.TopCerts[j].Servers
		}
		if f.TopCerts[i].CommonName != f.TopCerts[j].CommonName {
			return f.TopCerts[i].CommonName < f.TopCerts[j].CommonName
		}
		return f.TopCerts[i].Fingerprint < f.TopCerts[j].Fingerprint
	})
	if len(f.TopCerts) > topN {
		f.TopCerts = f.TopCerts[:topN]
	}
	sort.Slice(deviceRows, func(i, j int) bool {
		a, b := deviceRows[i], deviceRows[j]
		if a.row.Servers != b.row.Servers {
			return a.row.Servers > b.row.Servers
		}
		if a.row.Device != b.row.Device {
			return a.row.Device < b.row.Device
		}
		if a.row.CommonName != b.row.CommonName {
			return a.row.CommonName < b.row.CommonName
		}
		return a.fp < b.fp
	})
	for _, dr := range deviceRows {
		f.DeviceCerts = append(f.DeviceCerts, dr.row)
	}
	return f
}
