package milp_test

import (
	"testing"

	"vmalloc/internal/testutil/leakcheck"
)

// TestMain fails the package if a test leaves a goroutine running: every
// Solve that starts a speculative helper must have waited for it to exit.
func TestMain(m *testing.M) { leakcheck.Main(m) }
