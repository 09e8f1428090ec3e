package presolve

import "vmalloc/internal/lp"

// RecordCount exposes the length of the postsolve stack to the golden
// fingerprints: together with Stats it pins how many eliminations ran.
func (r *Reduction) RecordCount() int { return len(r.records) }

// Reuse runs the backend's reduction step for a solve of p under opts that
// was handed token, and reports whether it took the whole reduction off the
// token (nothing ran).
func Reuse(token *lp.Basis, p *lp.Problem, opts *Options) bool {
	prev, _ := token.Attachment().(*Reduction)
	red, err := reduce(p, opts, prev)
	return err == nil && prev != nil && red == prev
}
