package milp

import "vmalloc/internal/lp"

// SetHelperHook makes the speculative helper call hook before every node it
// solves, and returns a function that removes the hook. No Solve may run
// while the hook is set or removed.
func SetHelperHook(hook func()) (restore func()) {
	prev := helperSolve
	helperSolve = func(rs *relaxations, nd *node) (*lp.Solution, error) {
		hook()
		return prev(rs, nd)
	}
	return func() { helperSolve = prev }
}
