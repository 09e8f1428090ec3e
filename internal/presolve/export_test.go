package presolve

// RecordCount exposes the length of the postsolve stack to the golden
// fingerprints: together with Stats it pins how many eliminations ran.
func (r *Reduction) RecordCount() int { return len(r.records) }
