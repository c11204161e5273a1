// Package trace holds the job-arrival record of the online ECoST
// scheduler's open-loop streams. internal/scenario generates, reads
// and writes streams of them.
package trace

import "ecost/internal/workloads"

// Arrival is one job arrival. It names its application by id, so it
// is three words and holds no pointer.
type Arrival struct {
	At     float64
	App    workloads.ID
	SizeGB float64
}
