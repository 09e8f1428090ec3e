package presolve

import "vmalloc/internal/lp"

// RecordCount exposes the length of the postsolve stack to the golden
// fingerprints: together with Stats it pins how many eliminations ran.
func (r *Reduction) RecordCount() int { return len(r.records) }

// Reuse runs Backend's reduction step for a solve of p that was handed
// token, and reports whether it took the whole reduction off the token
// (nothing ran).
func Reuse(token *lp.Basis, p *lp.Problem) bool {
	prev, _ := token.Attachment().(*Reduction)
	red, err := reduce(p, nil, prev)
	return err == nil && prev != nil && red == prev
}
