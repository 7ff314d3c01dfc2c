package analysis

import (
	"sort"

	"ftpcloud/internal/personality"
)

// CategoryCount is one Table II row.
type CategoryCount struct {
	Name    string
	All     int
	PctAll  float64
	Anon    int
	PctAnon float64
}

// Classification is Table II: the category breakout of all vs anonymous
// servers.
type Classification struct {
	Rows      []CategoryCount // Generic, Hosted, Embedded, Unknown
	TotalFTP  int
	TotalAnon int
}

// classificationOrder fixes Table II's row order.
var classificationOrder = []string{"Generic Server", "Hosted Server", "Embedded Server", "Unknown"}

// ClassificationAcc accumulates Table II. The zero value is ready.
type ClassificationAcc struct {
	counts              map[string]*CategoryCount
	totalFTP, totalAnon int
}

// Observe folds one record.
func (a *ClassificationAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	if a.counts == nil {
		a.counts = map[string]*CategoryCount{}
		for _, name := range classificationOrder {
			a.counts[name] = &CategoryCount{Name: name}
		}
	}
	a.totalFTP++
	c := r.Class()
	name := "Unknown"
	if c.Known() {
		name = c.Category.String()
	}
	a.counts[name].All++
	if r.Host.AnonymousOK {
		a.totalAnon++
		a.counts[name].Anon++
	}
}

// ClassificationSnap is the serializable state of a ClassificationAcc.
type ClassificationSnap struct {
	Counts              map[string]CategoryCount
	TotalFTP, TotalAnon int
}

// Snapshot captures the accumulator as plain data.
func (a *ClassificationAcc) Snapshot() ClassificationSnap {
	s := ClassificationSnap{TotalFTP: a.totalFTP, TotalAnon: a.totalAnon}
	if a.counts != nil {
		s.Counts = make(map[string]CategoryCount, len(a.counts))
		for name, c := range a.counts {
			s.Counts[name] = *c
		}
	}
	return s
}

// Merge folds a snapshot of another accumulator into this one.
func (a *ClassificationAcc) Merge(s ClassificationSnap) {
	a.totalFTP += s.TotalFTP
	a.totalAnon += s.TotalAnon
	if len(s.Counts) == 0 {
		return
	}
	if a.counts == nil {
		a.counts = map[string]*CategoryCount{}
		for _, name := range classificationOrder {
			a.counts[name] = &CategoryCount{Name: name}
		}
	}
	for name, c := range s.Counts {
		dst, ok := a.counts[name]
		if !ok {
			dst = &CategoryCount{Name: name}
			a.counts[name] = dst
		}
		dst.All += c.All
		dst.Anon += c.Anon
	}
}

// Finalize produces Table II.
func (a *ClassificationAcc) Finalize() Classification {
	out := Classification{TotalFTP: a.totalFTP, TotalAnon: a.totalAnon}
	for _, name := range classificationOrder {
		row := CategoryCount{Name: name}
		if a.counts != nil {
			row = *a.counts[name]
		}
		row.PctAll = percent(row.All, a.totalFTP)
		row.PctAnon = percent(row.Anon, a.totalAnon)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// DeviceCount is one row of Table V or VII.
type DeviceCount struct {
	Model   string
	Found   int
	Anon    int
	PctAnon float64
}

// DeviceBreakdown holds the device tables.
type DeviceBreakdown struct {
	// Provider is Table V (ISP-deployed devices, ~zero anonymous).
	Provider []DeviceCount
	// Consumer is Table VII (user-deployed devices and their wildly
	// varying anonymous-by-default rates).
	Consumer []DeviceCount
	// Classes is Table IV: embedded devices grouped into NAS / home
	// router / printer classes.
	Classes []DeviceCount
}

// DevicesAcc accumulates Tables IV, V, and VII. The zero value is ready.
type DevicesAcc struct {
	provider map[string]*DeviceCount
	consumer map[string]*DeviceCount
	classes  map[string]*DeviceCount
}

func bump(m map[string]*DeviceCount, model string, anon bool) {
	dc, ok := m[model]
	if !ok {
		dc = &DeviceCount{Model: model}
		m[model] = dc
	}
	dc.Found++
	if anon {
		dc.Anon++
	}
}

// Observe folds one record.
func (a *DevicesAcc) Observe(r *Record) {
	if !r.Host.FTP {
		return
	}
	c := r.Class()
	if c.DeviceModel == "" {
		return
	}
	if a.provider == nil {
		a.provider = map[string]*DeviceCount{}
		a.consumer = map[string]*DeviceCount{}
		a.classes = map[string]*DeviceCount{}
	}
	bucket := a.consumer
	if c.ProviderDeployed {
		bucket = a.provider
	}
	bump(bucket, c.DeviceModel, r.Host.AnonymousOK)

	var className string
	switch c.DeviceClass {
	case personality.DeviceNAS, personality.DeviceStorage:
		className = "NAS"
	case personality.DeviceHomeRouter:
		if !c.ProviderDeployed {
			className = "Home Router (user-deployed)"
		}
	case personality.DevicePrinter:
		className = "Printers"
	}
	if className != "" {
		bump(a.classes, className, r.Host.AnonymousOK)
	}
}

// DevicesSnap is the serializable state of a DevicesAcc.
type DevicesSnap struct {
	Provider, Consumer, Classes map[string]DeviceCount
}

// Snapshot captures the accumulator as plain data.
func (a *DevicesAcc) Snapshot() DevicesSnap {
	flatten := func(m map[string]*DeviceCount) map[string]DeviceCount {
		if m == nil {
			return nil
		}
		out := make(map[string]DeviceCount, len(m))
		for model, dc := range m {
			out[model] = *dc
		}
		return out
	}
	return DevicesSnap{
		Provider: flatten(a.provider),
		Consumer: flatten(a.consumer),
		Classes:  flatten(a.classes),
	}
}

// Merge folds a snapshot of another accumulator into this one.
func (a *DevicesAcc) Merge(s DevicesSnap) {
	if len(s.Provider)+len(s.Consumer)+len(s.Classes) == 0 {
		return
	}
	if a.provider == nil {
		a.provider = map[string]*DeviceCount{}
		a.consumer = map[string]*DeviceCount{}
		a.classes = map[string]*DeviceCount{}
	}
	add := func(dst map[string]*DeviceCount, src map[string]DeviceCount) {
		for model, c := range src {
			dc, ok := dst[model]
			if !ok {
				dc = &DeviceCount{Model: model}
				dst[model] = dc
			}
			dc.Found += c.Found
			dc.Anon += c.Anon
		}
	}
	add(a.provider, s.Provider)
	add(a.consumer, s.Consumer)
	add(a.classes, s.Classes)
}

// Finalize produces the device tables.
func (a *DevicesAcc) Finalize() DeviceBreakdown {
	finish := func(m map[string]*DeviceCount) []DeviceCount {
		out := make([]DeviceCount, 0, len(m))
		for _, dc := range m {
			row := *dc
			row.PctAnon = percent(row.Anon, row.Found)
			out = append(out, row)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Found != out[j].Found {
				return out[i].Found > out[j].Found
			}
			return out[i].Model < out[j].Model
		})
		return out
	}
	return DeviceBreakdown{
		Provider: finish(a.provider),
		Consumer: finish(a.consumer),
		Classes:  finish(a.classes),
	}
}
