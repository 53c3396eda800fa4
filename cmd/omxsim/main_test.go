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
const runMainEnv = "OMXSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNASClassNeedsOneLetter: an empty -class used to panic on the index
// and a longer one silently ran its first letter; both must exit 1 with a
// message before any simulation starts.
func TestNASClassNeedsOneLetter(t *testing.T) {
	for _, class := range []string{"", "BC"} {
		cmd := exec.Command(os.Args[0], "-workload", "nas", "-class", class)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-class %q: err = %v, want exit status 1\n%s", class, err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, "bad -class") || strings.Contains(msg, "panic") {
			t.Errorf("-class %q printed %q, want a bad -class message and no panic", class, msg)
		}
	}
}
