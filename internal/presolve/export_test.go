package presolve

import "vmalloc/internal/lp"

// RecordCount exposes the length of the postsolve stack to the golden
// fingerprints: together with Stats it pins how many eliminations ran.
func (r *Reduction) RecordCount() int { return len(r.records) }

// Reuse runs the backend's reduction step for a solve of p under opts that
// was handed token, and reports what it took off the token: the whole
// reduction (nothing ran), or only the prepared matrix.
func Reuse(token *lp.Basis, p *lp.Problem, opts *Options) (reduction, matrix bool) {
	prev, _ := token.Attachment().(*Reduction)
	red, err := reduce(p, opts, prev)
	if err != nil || prev == nil {
		return false, false
	}
	return red == prev, red.src.mat == prev.src.mat
}
