package analysis

import "sort"

// UnexpectedServices is the identification ledger: what the staged funnel
// shed before enumeration, broken out by sniffed protocol. It is the
// simulation's analogue of LZR's headline result — most endpoints that
// accept a connection on a port do not speak the port's expected protocol —
// and it only populates on runs with the identification stage enabled.
type UnexpectedServices struct {
	// Total counts every shed endpoint.
	Total int
	// Services breaks Total out by protocol, largest first.
	Services []UnexpectedService
}

// UnexpectedService is one protocol's row in the shed ledger.
type UnexpectedService struct {
	Protocol string
	Count    int
	// PctShed is the protocol's share of everything shed.
	PctShed float64
	// SampleBanner is one observed first-response; the lexicographically
	// smallest is kept so the choice is deterministic under any shard
	// merge order.
	SampleBanner string
}

// UnexpectedAcc accumulates the shed ledger incrementally. The zero value is
// ready. Records without a Service (every FTP record, and every record of a
// two-stage run) are ignored, so the accumulator is inert unless the
// identification stage ran.
type UnexpectedAcc struct {
	total   int
	byProto map[string]int
	sample  map[string]string
}

// Observe folds one record.
func (a *UnexpectedAcc) Observe(r *Record) {
	proto := r.Host.Service
	if proto == "" {
		return
	}
	a.total++
	if a.byProto == nil {
		a.byProto = make(map[string]int)
		a.sample = make(map[string]string)
	}
	a.byProto[proto]++
	a.keepSample(proto, r.Host.Banner)
}

// keepSample retains the smallest non-empty banner seen for a protocol.
func (a *UnexpectedAcc) keepSample(proto, banner string) {
	if banner == "" {
		return
	}
	if cur, ok := a.sample[proto]; !ok || banner < cur {
		a.sample[proto] = banner
	}
}

// UnexpectedSnap is the serializable state of an UnexpectedAcc.
type UnexpectedSnap struct {
	Total   int
	ByProto map[string]int
	Sample  map[string]string
}

// Snapshot captures the accumulator as plain data.
func (a *UnexpectedAcc) Snapshot() UnexpectedSnap {
	s := UnexpectedSnap{Total: a.total}
	if a.byProto != nil {
		s.ByProto = make(map[string]int, len(a.byProto))
		for p, n := range a.byProto {
			s.ByProto[p] = n
		}
		s.Sample = make(map[string]string, len(a.sample))
		for p, b := range a.sample {
			s.Sample[p] = b
		}
	}
	return s
}

// Merge folds a snapshot of another accumulator into this one. Counts add;
// samples keep the smallest, so any merge order finalizes identically.
func (a *UnexpectedAcc) Merge(s UnexpectedSnap) {
	a.total += s.Total
	if len(s.ByProto) == 0 {
		return
	}
	if a.byProto == nil {
		a.byProto = make(map[string]int, len(s.ByProto))
		a.sample = make(map[string]string, len(s.Sample))
	}
	for p, n := range s.ByProto {
		a.byProto[p] += n
	}
	for p, b := range s.Sample {
		a.keepSample(p, b)
	}
}

// Finalize produces the ledger table: rows sorted by count descending,
// protocol name ascending on ties — deterministic regardless of fold or
// merge order.
func (a *UnexpectedAcc) Finalize() UnexpectedServices {
	u := UnexpectedServices{Total: a.total}
	for proto, n := range a.byProto {
		u.Services = append(u.Services, UnexpectedService{
			Protocol:     proto,
			Count:        n,
			PctShed:      percent(n, a.total),
			SampleBanner: a.sample[proto],
		})
	}
	sort.Slice(u.Services, func(i, j int) bool {
		if u.Services[i].Count != u.Services[j].Count {
			return u.Services[i].Count > u.Services[j].Count
		}
		return u.Services[i].Protocol < u.Services[j].Protocol
	})
	return u
}
