package core

import (
	"ecost/internal/audit"
	"ecost/internal/workloads"
)

// AuditOracle adapts the memoized brute-force Oracle to the
// audit.Oracle reference interface. Lookups resolve applications by
// name and hit the sharded singleflight caches, so the first quality
// report pays for each distinct (app, size) search once and every
// later report — or a second /quality scrape — is a cache hit.
type AuditOracle struct {
	o *Oracle
}

// NewAuditOracle wraps the oracle; returns a true nil interface for a
// nil oracle (not a typed-nil pointer) so the caller can pass the
// result straight to Log.Quality and the nil check there still works.
func NewAuditOracle(o *Oracle) audit.Oracle {
	if o == nil {
		return nil
	}
	return &AuditOracle{o: o}
}

var _ audit.Oracle = (*AuditOracle)(nil)

// SoloBestEDP implements audit.Oracle.
func (a *AuditOracle) SoloBestEDP(app string, sizeGB float64) (float64, error) {
	w, err := workloads.Lookup(app)
	if err != nil {
		return 0, err
	}
	best, err := a.o.BestSolo(w, sizeGB*1024)
	if err != nil {
		return 0, err
	}
	return best.Out.EDP, nil
}

// PairBestEDP implements audit.Oracle via COLAO's exhaustive search
// over the joint configuration space for the actually co-located pair.
func (a *AuditOracle) PairBestEDP(appA string, sizeAGB float64, appB string, sizeBGB float64) (float64, error) {
	wa, err := workloads.Lookup(appA)
	if err != nil {
		return 0, err
	}
	wb, err := workloads.Lookup(appB)
	if err != nil {
		return 0, err
	}
	best, err := a.o.COLAO(wa, sizeAGB*1024, wb, sizeBGB*1024)
	if err != nil {
		return 0, err
	}
	return best.Out.EDP, nil
}
