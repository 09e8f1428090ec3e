// Package grid names the 8x64 parks of the relaxation goldens, shared by
// relax's bound golden and milp's pivot-path golden. Only tests import it.
package grid

import "vmalloc/internal/workload"

// Scenario is 8x64 park number i, cycling through the platform
// heterogeneities and memory slacks of the paper's grid.
func Scenario(i int) workload.Scenario {
	return workload.Scenario{
		Hosts: 8, Services: 64,
		COV:   []float64{0, 0.5, 1.0}[i%3],
		Slack: []float64{0.3, 0.5, 0.7}[(i/3)%3],
		Seed:  int64(i + 1),
	}
}
