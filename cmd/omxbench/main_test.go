package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can check what the command prints and how it exits.
const runMainEnv = "OMXBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitOne: each flag set below once panicked, printed a table
// of zeros, or was silently ignored; each must exit 1 with a one-line
// message before any experiment runs.
func TestBadFlagsExitOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"par-negative-incast", []string{"-run", "incast", "-quick", "-par", "-1"}, "bad -par -1"},
		{"par-negative-fig5", []string{"-run", "fig5", "-quick", "-par", "-1"}, "bad -par -1"},
		{"sample-without-trace-dir", []string{"-run", "incast", "-quick", "-sample", "200us"}, "-sample 200us needs -trace-dir"},
		{"sample-bad", []string{"-run", "incast", "-quick", "-sample", "soon"}, "bad sample interval"},
		{"run-unknown-after-known", []string{"-run", "fig5,nosuch", "-quick"}, "unknown experiment \"nosuch\""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%q: err = %v, want exit status 1\n%s", tc.args, err, out)
			}
			msg := strings.TrimSuffix(string(out), "\n")
			if !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") ||
				strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
				t.Errorf("%q printed %q, want one line containing %q", tc.args, out, tc.want)
			}
		})
	}
}
