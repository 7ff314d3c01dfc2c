package analysis

// Funnel is Table I: the discovery-to-anonymous scan funnel.
type Funnel struct {
	IPsScanned   uint64
	OpenPort21   int
	FTPServers   int
	AnonServers  int
	PctOpen      float64 // of scanned
	PctFTP       float64 // of open
	PctAnonymous float64 // of FTP
}

// FunnelAcc accumulates Table I incrementally. The zero value is ready.
type FunnelAcc struct {
	open, ftp, anon int
}

// Observe folds one record.
func (a *FunnelAcc) Observe(r *Record) {
	if !r.Host.PortOpen {
		return
	}
	a.open++
	if !r.Host.FTP {
		return
	}
	a.ftp++
	if r.Host.AnonymousOK {
		a.anon++
	}
}

// FunnelSnap is the serializable state of a FunnelAcc.
type FunnelSnap struct {
	Open, FTP, Anon int
}

// Snapshot captures the accumulator as plain data.
func (a *FunnelAcc) Snapshot() FunnelSnap {
	return FunnelSnap{Open: a.open, FTP: a.ftp, Anon: a.anon}
}

// Merge folds a snapshot of another accumulator into this one.
func (a *FunnelAcc) Merge(s FunnelSnap) {
	a.open += s.Open
	a.ftp += s.FTP
	a.anon += s.Anon
}

// Finalize produces Table I for the given sweep size.
func (a *FunnelAcc) Finalize(ipsScanned uint64) Funnel {
	f := Funnel{
		IPsScanned:  ipsScanned,
		OpenPort21:  a.open,
		FTPServers:  a.ftp,
		AnonServers: a.anon,
	}
	if f.IPsScanned > 0 {
		f.PctOpen = 100 * float64(f.OpenPort21) / float64(f.IPsScanned)
	}
	f.PctFTP = percent(f.FTPServers, f.OpenPort21)
	f.PctAnonymous = percent(f.AnonServers, f.FTPServers)
	return f
}
