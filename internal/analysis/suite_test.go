package analysis_test

import (
	"testing"

	"vmalloc/internal/analysis"
	"vmalloc/internal/analysis/atest"
	"vmalloc/internal/analysis/detrange"
	"vmalloc/internal/analysis/floateq"
	"vmalloc/internal/analysis/lintkit"
	"vmalloc/internal/analysis/noclock"
	"vmalloc/internal/analysis/slogonly"
	"vmalloc/internal/analysis/syncorder"
)

func TestDetrangeCriticalPackage(t *testing.T) {
	atest.Run(t, "testdata/detrange", "vmalloc/internal/engine", detrange.Analyzer)
}

func TestDetrangeNonCriticalPackage(t *testing.T) {
	atest.Run(t, "testdata/detrange_clean", "vmalloc/internal/obs", detrange.Analyzer)
}

func TestNoclock(t *testing.T) {
	atest.Run(t, "testdata/noclock", "vmalloc/internal/vp", noclock.Analyzer)
}

func TestNoclockNonCriticalPackage(t *testing.T) {
	// The same fixture outside the critical set produces no findings.
	diags, err := atest.Analyze("testdata/noclock", "vmalloc/internal/obs", noclock.Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("noclock flagged a non-critical package: %v", diags)
	}
}

func TestFloateq(t *testing.T) {
	atest.Run(t, "testdata/floateq", "vmalloc/internal/demo", floateq.Analyzer)
}

func TestSyncorderForeign(t *testing.T) {
	atest.Run(t, "testdata/syncorder_foreign", "vmalloc/internal/server", syncorder.Analyzer)
}

func TestSyncorderJournal(t *testing.T) {
	atest.Run(t, "testdata/syncorder_journal", "vmalloc/internal/journal", syncorder.Analyzer)
}

func TestSlogonlyLibrary(t *testing.T) {
	atest.Run(t, "testdata/slogonly", "vmalloc/internal/demo", slogonly.Analyzer)
}

func TestSlogonlyCmdExempt(t *testing.T) {
	atest.Run(t, "testdata/slogonly_cmd", "vmalloc/cmd/demo", slogonly.Analyzer)
}

// TestEmptySuppressionReasonIsFlagged is the suppression meta-test: a bare
// //vmalloc:nondet-ok waives the underlying finding but must surface as a
// finding itself, so suppressing without a justification can never pass the
// suite.
func TestEmptySuppressionReasonIsFlagged(t *testing.T) {
	diags, err := atest.Analyze("testdata/suppression_empty", "vmalloc/internal/engine", analysis.All...)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the empty-reason finding: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "suppression" {
		t.Fatalf("diagnostic came from %q, want the suppression meta-rule: %v", d.Analyzer, d)
	}
	for _, dd := range diags {
		if dd.Analyzer == detrange.Analyzer.Name {
			t.Fatalf("empty-reason comment failed to waive the underlying finding: %v", dd)
		}
	}
}

// TestRegistryComplete pins the registry: the vet driver runs exactly the
// five invariants, and each carries documentation.
func TestRegistryComplete(t *testing.T) {
	want := map[string]bool{
		"detrange": true, "noclock": true, "floateq": true,
		"syncorder": true, "slogonly": true,
	}
	if len(analysis.All) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(analysis.All), len(want))
	}
	for _, a := range analysis.All {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in registry", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestDeterminismCriticalSet pins the policed package list against the
// documented contract in docs/analysis.md.
func TestDeterminismCriticalSet(t *testing.T) {
	want := []string{
		"vmalloc/internal/engine",
		"vmalloc/internal/hvp",
		"vmalloc/internal/core",
		"vmalloc/internal/vp",
		"vmalloc/internal/shard",
		"vmalloc/internal/journal",
		"vmalloc/internal/lp",
		"vmalloc/internal/milp",
		"vmalloc/internal/presolve",
	}
	got := map[string]bool{}
	for _, p := range lintkit.DeterminismCritical {
		got[p] = true
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("package %s missing from the determinism-critical set", p)
		}
		if !lintkit.IsDeterminismCritical(p) {
			t.Errorf("IsDeterminismCritical(%s) = false", p)
		}
	}
	for _, p := range []string{"vmalloc/internal/obs", "vmalloc/internal/relax"} {
		if lintkit.IsDeterminismCritical(p) {
			t.Errorf("IsDeterminismCritical(%s) = true, want false", p)
		}
	}
}
