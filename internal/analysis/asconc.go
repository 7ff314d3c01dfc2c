package analysis

import (
	"sort"

	"ftpcloud/internal/asdb"
)

// ASConcentration is Table III plus Figure 1's CDF inputs.
type ASConcentration struct {
	// ASesForHalfAll/Anon/Writable: how many of the largest ASes hold
	// 50% of each population (paper: 78 / 42 / —).
	ASesForHalfAll      int
	ASesForHalfAnon     int
	ASesForHalfWritable int
	// TypeBreakdownAll/Anon: operator types among those covering ASes
	// (paper: 50 hosting / 25 ISP / 3 academic of the 78).
	TypeBreakdownAll  map[asdb.Type]int
	TypeBreakdownAnon map[asdb.Type]int
	// Totals.
	TotalASesAll      int
	TotalASesAnon     int
	TotalASesWritable int
	// CDFs are cumulative fractions per AS rank (Figure 1 series).
	CDFAll      []float64
	CDFAnon     []float64
	CDFWritable []float64
}

// ASConcentrationAcc accumulates Table III / Figure 1. Counts key on the AS
// number — plain data rather than *asdb.AS identity — so two accumulators
// built against the same database merge exactly. The zero value is ready.
type ASConcentrationAcc struct {
	all      map[uint32]int
	anon     map[uint32]int
	writable map[uint32]int
	// types remembers each counted AS's operator type for the Table III
	// breakdown; an AS number maps to exactly one type in the database.
	types map[uint32]asdb.Type
}

// Observe folds one record.
func (a *ASConcentrationAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	as := r.AS()
	if as == nil {
		return
	}
	if a.all == nil {
		a.all = map[uint32]int{}
		a.anon = map[uint32]int{}
		a.writable = map[uint32]int{}
		a.types = map[uint32]asdb.Type{}
	}
	n := as.Number
	a.types[n] = as.Type
	a.all[n]++
	if r.Host.AnonymousOK {
		a.anon[n]++
		if Writable(r.Host) {
			a.writable[n]++
		}
	}
}

// ASConcentrationSnap is the serializable state of an ASConcentrationAcc.
type ASConcentrationSnap struct {
	All      map[uint32]int
	Anon     map[uint32]int
	Writable map[uint32]int
	Types    map[uint32]asdb.Type
}

// Snapshot captures the accumulator as plain data.
func (a *ASConcentrationAcc) Snapshot() ASConcentrationSnap {
	return ASConcentrationSnap{
		All:      copyCounts(a.all),
		Anon:     copyCounts(a.anon),
		Writable: copyCounts(a.writable),
		Types:    copyCounts(a.types),
	}
}

// Merge folds a snapshot of another accumulator into this one.
func (a *ASConcentrationAcc) Merge(s ASConcentrationSnap) {
	if len(s.All) == 0 && len(s.Types) == 0 {
		return
	}
	if a.all == nil {
		a.all = map[uint32]int{}
		a.anon = map[uint32]int{}
		a.writable = map[uint32]int{}
		a.types = map[uint32]asdb.Type{}
	}
	addCounts(a.all, s.All)
	addCounts(a.anon, s.Anon)
	addCounts(a.writable, s.Writable)
	for n, t := range s.Types {
		a.types[n] = t
	}
}

// Finalize produces Table III and Figure 1.
func (a *ASConcentrationAcc) Finalize() ASConcentration {
	halfAll, typesAll, cdfAll := concentration(a.all, a.types)
	halfAnon, typesAnon, cdfAnon := concentration(a.anon, a.types)
	halfW, _, cdfW := concentration(a.writable, a.types)

	return ASConcentration{
		ASesForHalfAll:      halfAll,
		ASesForHalfAnon:     halfAnon,
		ASesForHalfWritable: halfW,
		TypeBreakdownAll:    typesAll,
		TypeBreakdownAnon:   typesAnon,
		TotalASesAll:        len(a.all),
		TotalASesAnon:       len(a.anon),
		TotalASesWritable:   len(a.writable),
		CDFAll:              cdfAll,
		CDFAnon:             cdfAnon,
		CDFWritable:         cdfW,
	}
}

// concentration sorts AS counts descending and returns the 50% crossing,
// the type mix of the ASes up to that crossing, and the full CDF.
func concentration(counts map[uint32]int, asTypes map[uint32]asdb.Type) (half int, types map[asdb.Type]int, cdf []float64) {
	type pair struct {
		as uint32
		n  int
	}
	pairs := make([]pair, 0, len(counts))
	total := 0
	for as, n := range counts {
		pairs = append(pairs, pair{as, n})
		total += n
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].n != pairs[j].n {
			return pairs[i].n > pairs[j].n
		}
		return pairs[i].as < pairs[j].as
	})
	types = make(map[asdb.Type]int)
	cdf = make([]float64, len(pairs))
	cum := 0
	half = len(pairs)
	crossed := false
	for i, p := range pairs {
		cum += p.n
		if total > 0 {
			cdf[i] = float64(cum) / float64(total)
		}
		if !crossed {
			types[asTypes[p.as]]++
			if float64(cum) >= 0.5*float64(total) {
				half = i + 1
				crossed = true
			}
		}
	}
	if total == 0 {
		half = 0
	}
	return half, types, cdf
}

// TopAS is one Table VI row.
type TopAS struct {
	Number        uint32
	Name          string
	IPsAdvertised uint64
	FTPServers    int
	AnonServers   int
	PctAnon       float64
}

// TopASesAcc accumulates Table VI, keyed by AS number with the row metadata
// (name, advertised space) carried alongside so snapshots are plain data.
// The zero value is ready.
type TopASesAcc struct {
	counts map[uint32]*topASAgg
}

type topASAgg struct {
	ftp, anon  int
	name       string
	advertised uint64
}

// Observe folds one record.
func (a *TopASesAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	as := r.AS()
	if as == nil {
		return
	}
	if a.counts == nil {
		a.counts = map[uint32]*topASAgg{}
	}
	agg, ok := a.counts[as.Number]
	if !ok {
		agg = &topASAgg{name: as.Name, advertised: as.Advertised()}
		a.counts[as.Number] = agg
	}
	agg.ftp++
	if r.Host.AnonymousOK {
		agg.anon++
	}
}

// TopASCounts is one AS's serializable Table VI state.
type TopASCounts struct {
	FTP, Anon  int
	Name       string
	Advertised uint64
}

// TopASesSnap is the serializable state of a TopASesAcc.
type TopASesSnap struct {
	Counts map[uint32]TopASCounts
}

// Snapshot captures the accumulator as plain data.
func (a *TopASesAcc) Snapshot() TopASesSnap {
	s := TopASesSnap{}
	if a.counts != nil {
		s.Counts = make(map[uint32]TopASCounts, len(a.counts))
		for n, agg := range a.counts {
			s.Counts[n] = TopASCounts{FTP: agg.ftp, Anon: agg.anon, Name: agg.name, Advertised: agg.advertised}
		}
	}
	return s
}

// Merge folds a snapshot of another accumulator into this one.
func (a *TopASesAcc) Merge(s TopASesSnap) {
	if len(s.Counts) == 0 {
		return
	}
	if a.counts == nil {
		a.counts = map[uint32]*topASAgg{}
	}
	for n, c := range s.Counts {
		agg, ok := a.counts[n]
		if !ok {
			agg = &topASAgg{name: c.Name, advertised: c.Advertised}
			a.counts[n] = agg
		}
		agg.ftp += c.FTP
		agg.anon += c.Anon
	}
}

// Finalize produces the top-n Table VI rows.
func (a *TopASesAcc) Finalize(n int) []TopAS {
	out := make([]TopAS, 0, len(a.counts))
	for number, agg := range a.counts {
		out = append(out, TopAS{
			Number:        number,
			Name:          agg.name,
			IPsAdvertised: agg.advertised,
			FTPServers:    agg.ftp,
			AnonServers:   agg.anon,
			PctAnon:       percent(agg.anon, agg.ftp),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AnonServers != out[j].AnonServers {
			return out[i].AnonServers > out[j].AnonServers
		}
		return out[i].Number < out[j].Number
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// copyCounts clones a map for a snapshot; nil stays nil.
func copyCounts[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return nil
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// addCounts adds src's counts into dst.
func addCounts[K comparable](dst, src map[K]int) {
	for k, v := range src {
		dst[k] += v
	}
}
