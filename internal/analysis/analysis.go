// Package analysis derives every table and figure in the paper's evaluation
// from the census dataset. Each experiment has a typed result and a
// streaming accumulator (the *Acc types) that folds records one at a time;
// Aggregator runs all of them in a single pass and is the one entry point,
// fed record by record as the enumerator fleet emits hosts. Nothing here
// consults the world generator — only wire-level observations, the AS
// database, and the external HTTP (Censys-equivalent) join.
package analysis

import (
	"ftpcloud/internal/asdb"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/simnet"
)

// HTTPInfo is the Censys-style external join: whether an IP also serves
// HTTP and whether that web server advertises server-side scripting.
type HTTPInfo struct {
	HTTP      bool
	Scripting bool
}

// Record is the per-host view the accumulators consume: the raw wire
// observations plus lazily derived facts (classification, AS resolution,
// HTTP join) that are computed at most once per record no matter how many
// accumulators ask. This replaces the old post-hoc map[*HostRecord] caches:
// derivation now happens at observe time, while the record is hot, and
// nothing outlives the Record once every accumulator has folded it.
type Record struct {
	Host *dataset.HostRecord

	d *deriver

	class    fingerprint.Classification
	classSet bool
	as       *asdb.AS
	asSet    bool
	http     HTTPInfo
	httpOK   bool
	httpSet  bool
	ip       simnet.IP
	ipOK     bool
	ipSet    bool
}

// deriver supplies a Record's derived facts: the AS database and the HTTP
// join source. The join is a hook rather than a map so the census can answer
// from the world's web-scan truth without materializing a map first.
type deriver struct {
	db   *asdb.DB
	http func(*Record) (HTTPInfo, bool)
}

// Class returns the record's fingerprint classification, computed on first
// use.
func (r *Record) Class() fingerprint.Classification {
	if !r.classSet {
		r.class = fingerprint.Classify(r.Host)
		r.classSet = true
	}
	return r.class
}

// AS resolves the record's AS, or nil, parsing the IP string at most once
// per record (shared with the HTTP join via IPNum).
func (r *Record) AS() *asdb.AS {
	if !r.asSet {
		r.asSet = true
		if r.d != nil && r.d.db != nil {
			if ip, ok := r.IPNum(); ok {
				if as, found := r.d.db.Lookup(ip); found {
					r.as = as
				}
			}
		}
	}
	return r.as
}

// HTTP returns the external web-scan join for this host, if any.
func (r *Record) HTTP() (HTTPInfo, bool) {
	if !r.httpSet {
		r.httpSet = true
		if r.d != nil && r.d.http != nil {
			r.http, r.httpOK = r.d.http(r)
		}
	}
	return r.http, r.httpOK
}

// IPNum returns the record's address in numeric form, parsed once.
func (r *Record) IPNum() (simnet.IP, bool) {
	if !r.ipSet {
		r.ipSet = true
		ip, err := simnet.ParseIP(r.Host.IP)
		if err == nil {
			r.ip = ip
			r.ipOK = true
		}
	}
	return r.ip, r.ipOK
}

// Writable reports whether a record carries world-writability evidence.
func Writable(rec *dataset.HostRecord) bool {
	return len(rec.WriteEvidence) > 0
}

// percent guards divide-by-zero.
func percent(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
