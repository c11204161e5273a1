package power

// PhaseAccumulator splits integrated cluster energy by node-occupancy
// phase: idle (no residents), solo (one application), and co-located
// (two or more). The online scheduler adds its per-phase power sums at
// every accounting interval; the split is what shows whether the
// pairing policy is actually converting idle/solo watt-seconds into
// co-located ones (the mechanism behind the paper's EDP wins).
type PhaseAccumulator struct {
	IdleJ float64 // energy burned by empty nodes
	SoloJ float64 // energy burned by single-resident nodes
	CoJ   float64 // energy burned by co-located nodes
}

// TotalJ returns the summed energy across phases.
func (p *PhaseAccumulator) TotalJ() float64 { return p.IdleJ + p.SoloJ + p.CoJ }

// PhaseName labels a node-occupancy phase — the vocabulary shared by
// the accumulator, the tracer's per-node occupancy spans, and the EDP
// attribution report.
func PhaseName(residents int) string {
	switch {
	case residents <= 0:
		return "idle"
	case residents == 1:
		return "solo"
	default:
		return "co-located"
	}
}

// AddNamed accrues joules under a PhaseName label, reporting false for
// an unknown label. It lets consumers that carry the phase as a string
// (trace spans) re-integrate into the accumulator.
func (p *PhaseAccumulator) AddNamed(name string, joules float64) bool {
	switch name {
	case "idle":
		p.IdleJ += joules
	case "solo":
		p.SoloJ += joules
	case "co-located":
		p.CoJ += joules
	default:
		return false
	}
	return true
}
