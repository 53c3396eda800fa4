package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestBadFlagsExitOne: each flag set below once panicked, ran a
// nonsense measurement or reported a deadlock; each must exit 1 with a
// one-line message before any simulation starts.
func TestBadFlagsExitOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"class-empty", []string{"-workload", "nas", "-class", ""}, "bad -class"},
		{"class-two-letters", []string{"-workload", "nas", "-class", "BC"}, "bad -class"},
		{"delay-negative", []string{"-delay", "-5"}, "invalid coalescing delay"},
		{"rate-delay-negative", []string{"-workload", "rate", "-delay", "-5"}, "invalid coalescing delay"},
		{"incast-delay-negative", []string{"-workload", "incast", "-delay", "-5"}, "invalid coalescing delay"},
		{"iters-zero", []string{"-iters", "0"}, "invalid iteration count"},
		{"iters-negative", []string{"-iters", "-3"}, "invalid iteration count"},
		{"nodes-one", []string{"-nodes", "1"}, "needs -nodes >= 2"},
		{"rate-nodes-one", []string{"-workload", "rate", "-nodes", "1"}, "needs -nodes >= 2"},
		{"size-negative", []string{"-size", "-1"}, "bad -size"},
		{"nas-size-negative", []string{"-workload", "nas", "-size", "-1"}, "bad -size"},
		{"qframes-negative", []string{"-qframes", "-5"}, "bad -qframes"},
		{"bg-negative", []string{"-bg", "-1"}, "invalid background stream count"},
		{"drop-nan", []string{"-drop", "NaN"}, "-drop NaN outside [0,1)"},
		{"dup-nan", []string{"-dup", "NaN"}, "-dup NaN outside [0,1)"},
		{"delayp-nan", []string{"-delayp", "NaN"}, "-delayp NaN outside [0,1)"},
		{"drop-nan-bursty", []string{"-drop", "NaN", "-burst", "8"}, "-drop NaN outside [0,1)"},
		{"burst-inf", []string{"-drop", "0.02", "-burst", "Inf"}, "bad -burst"},
		{"burst-nan", []string{"-drop", "0.02", "-burst", "NaN"}, "bad -burst"},
		{"burst-negative", []string{"-burst", "-1"}, "bad -burst"},
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

// TestJSONGolden pins omxsim's -json output for each workload byte for
// byte against testdata/<golden>.json (<name>.json when golden is empty),
// so a change that reroutes a workload through another harness cannot move
// its numbers unnoticed. The lossy incast pins a port whose jitter and
// send-side fault draws share one stream while frames wait in its queue;
// the -par 2 cases must print the serial bytes.
func TestJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		args         []string
	}{
		{"pingpong", "", []string{"-workload", "pingpong", "-json"}},
		{"rate", "", []string{"-workload", "rate", "-json"}},
		{"rate-par2", "rate", []string{"-workload", "rate", "-par", "2", "-json"}},
		{"incast", "", []string{"-workload", "incast", "-nodes", "9", "-qframes", "64", "-json"}},
		{"incast-lossy", "", []string{"-workload", "incast", "-nodes", "16", "-qframes", "8", "-drop", "0.01", "-json"}},
		{"nas", "", []string{"-workload", "nas", "-bench", "is", "-class", "S", "-ranks", "4", "-json"}},
		{"nas-par2", "nas", []string{"-workload", "nas", "-bench", "is", "-class", "S", "-ranks", "4", "-par", "2", "-json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden := tc.golden
			if golden == "" {
				golden = tc.name
			}
			want, err := os.ReadFile(filepath.Join("testdata", golden+".json"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%q: %v", tc.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%q output differs from testdata/%s.json:\n got %s\nwant %s", tc.args, golden, got, want)
			}
		})
	}
}
