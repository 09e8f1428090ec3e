package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"vmalloc"
	"vmalloc/internal/workload"
)

// build compiles this command into a temporary directory and returns the
// binary's path.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary in dir and returns its stdout, stderr and exit
// code.
func run(t *testing.T, bin, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatalf("%v: %v", args, err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestGenWritesGeneratedInstance checks that -exp gen writes exactly the
// instance the public generator builds from the same scenario, to stdout
// and to -o alike, and that the targets refuse out-of-range values, and
// flags they do not read, before writing anything.
func TestGenWritesGeneratedInstance(t *testing.T) {
	bin, dir := build(t), t.TempDir()
	var want bytes.Buffer
	scn := vmalloc.Scenario{Hosts: 8, Services: 40, COV: 0.25, Slack: 0.3, Mode: workload.HeteroCPUHomogeneous, Seed: 3}
	if err := vmalloc.Generate(scn).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	args := []string{"-exp", "gen", "-hosts", "8", "-services", "40", "-cov", "0.25", "-slack", "0.3", "-mode", "cpu-homogeneous", "-seed", "3"}
	got, stderr, code := run(t, bin, dir, args...)
	if code != 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("exit %d, stderr %q; stdout differs from vmalloc.Generate(%+v).WriteJSON", code, stderr, scn)
	}
	if _, stderr, code := run(t, bin, dir, append(args, "-o", "inst.json")...); code != 0 {
		t.Fatalf("-o: exit %d, stderr %q", code, stderr)
	}
	if file, err := os.ReadFile(filepath.Join(dir, "inst.json")); err != nil || !bytes.Equal(file, want.Bytes()) {
		t.Fatalf("-o inst.json differs from vmalloc.Generate(%+v).WriteJSON (read error %v)", scn, err)
	}

	for _, bad := range [][]string{
		{"-exp", "gen", "-hosts", "0"},
		{"-exp", "gen", "-services", "-1"},
		{"-exp", "gen", "-cov", "-1"},
		{"-exp", "gen", "-maxerr", "-1"},
		{"-exp", "gen", "-hosts", "0", "-make-trace", "10"},
		{"-exp", "simulate", "-hosts", "0"},
		{"-exp", "simulate", "-cov", "-0.5"},
		{"-exp", "simulate", "-maxerr", "-1"},
		{"-exp", "fig5", "-cov", "-1"},
		{"-exp", "fig2", "-slack", "-0.5"},
		{"-exp", "fig5", "-services", "0"},
		{"-exp", "theorem1", "-hosts", "4"},
	} {
		args := append(bad, "-o", "bad.out")
		stdout, stderr, code := run(t, bin, dir, args...)
		if code != 2 || len(stdout) != 0 || !bytes.Contains(stderr, []byte(bad[2])) {
			t.Errorf("%v: exit %d, stdout %d bytes, stderr %q; want exit 2, no output, a message naming %s",
				args, code, len(stdout), stderr, bad[2])
		}
		if _, err := os.Stat(filepath.Join(dir, "bad.out")); err == nil {
			t.Fatalf("%v wrote bad.out", args)
		}
	}
}
