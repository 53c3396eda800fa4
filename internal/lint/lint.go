// Package lint is the omxlint determinism-and-hot-path analyzer suite.
//
// Every number this repository reports rests on simulations being
// bit-identical across scheduler, worker count, and shard layout. The
// differential CI jobs check that property dynamically on a handful of
// grids; this package enforces the invariants behind it statically, on
// every package, on every run:
//
//   - forbiddencalls: no wall-clock time, ambient randomness,
//     environment-dependent behaviour, or unstable sorts inside
//     simulation-visible packages.
//   - maprange: no map iteration feeding simulation-visible state — map
//     order is randomized per process.
//   - goroutine: goroutines, channels, and sync primitives are confined
//     to the audited concurrency layer (sim.Group, the sweep worker
//     pool, the cluster watchdog).
//   - hotpathalloc: functions annotated //omxlint:hotpath must avoid
//     allocation-inducing constructs, turning the AllocsPerRun guards
//     into compile-time findings, and map lookups, which hash the key on
//     every call.
//
// Escape hatches are explicit and audited: see directives.go for the
// //omxlint:allow vocabulary. The driver counts every suppression and
// fails on directives that suppress nothing.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"openmxsim/internal/lint/analysis"
)

// simVisiblePackages are the packages whose state is reachable from a
// running simulation: any nondeterminism here shows up in reports. The
// check matches the last import-path segment so analysistest fixtures can
// opt in by directory name.
var simVisiblePackages = map[string]bool{
	"sim":     true,
	"fabric":  true,
	"nic":     true,
	"omx":     true,
	"host":    true,
	"chaos":   true,
	"cluster": true,
	"mpi":     true,
	"proc":    true,
	"wire":    true,
	"trace":   true,
}

// auditedConcurrency are the sim-visible packages allowed to use
// goroutines, channels, and sync primitives: sim owns the conservative
// Group synchronizer, cluster owns the liveness watchdog. (The sweep
// worker pool is audited too, but sweep is not sim-visible, so the
// goroutine analyzer never reaches it.)
var auditedConcurrency = map[string]bool{
	"sim":     true,
	"cluster": true,
}

// pathBase returns the last segment of an import path.
func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func simVisible(path string) bool { return simVisiblePackages[pathBase(path)] }

// SimVisible reports whether the package at path is inside the
// simulation-visible boundary the suite polices. Exported so tests can
// pin the boundary itself: the serve control plane, for example, must
// stay outside it — its goroutines, clocks, and maps are load-bearing —
// and a rename or map edit that silently pulled it inside (or pushed a
// simulation package outside) should fail a test, not a code review.
func SimVisible(path string) bool { return simVisible(path) }

// Analyzers returns the full omxlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{ForbiddenCalls, MapRange, Goroutine, HotPathAlloc}
}

// knownNames returns the valid analyzer names for //omxlint:allow
// directives — always the full suite, regardless of which analyzers a run
// enables, so a partial run never misreports a valid directive as unknown.
// (A literal list, not derived from Analyzers(): the analyzers themselves
// parse directives, and deriving the set would cycle their initializers.)
func knownNames() map[string]bool {
	return map[string]bool{
		"forbiddencalls": true,
		"maprange":       true,
		"goroutine":      true,
		"hotpathalloc":   true,
	}
}

// Finding is one surfaced (unsuppressed) diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Summary counts the run for the omxlint banner.
type Summary struct {
	Packages   int
	Findings   int
	Allows     int // //omxlint:allow directives seen
	Suppressed int // diagnostics suppressed by them
	Hotpaths   int // functions checked by hotpathalloc
}

// Run applies the analyzers to the packages, applying the directive layer:
// malformed directives are findings, matching //omxlint:allow directives
// suppress, and allow directives that suppress nothing (for an analyzer
// that ran) are findings themselves. Findings come back sorted by
// position.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]Finding, Summary) {
	var findings []Finding
	sum := Summary{Packages: len(pkgs)}
	known := knownNames()
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		dirs := directivesFor(pkg, known)
		for _, fd := range dirs {
			sum.Allows += len(fd.allows)
			sum.Hotpaths += len(fd.hotpath)
			for _, diag := range fd.errs {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(diag.Pos),
					Analyzer: "omxlint",
					Message:  diag.Message,
				})
			}
		}
		for _, a := range analyzers {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("analyzer failed: %v", err),
				})
				continue
			}
			for _, diag := range diags {
				pos := pkg.Fset.Position(diag.Pos)
				if fd := dirs[pos.Filename]; fd != nil {
					if al := fd.allowFor(a.Name, pos.Line); al != nil {
						al.used = true
						sum.Suppressed++
						continue
					}
				}
				findings = append(findings, Finding{Pos: pos, Analyzer: a.Name, Message: diag.Message})
			}
		}
		// An allow that suppressed nothing is stale — unless its analyzer
		// was not part of this run, in which case we cannot tell.
		for _, fd := range dirs {
			for _, al := range fd.allows {
				if !al.used && ran[al.analyzer] {
					findings = append(findings, Finding{
						Pos:      pkg.Fset.Position(al.pos),
						Analyzer: "omxlint",
						Message:  fmt.Sprintf("unused //omxlint:allow %s directive: nothing on this or the next line triggers %s", al.analyzer, al.analyzer),
					})
				}
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	sum.Findings = len(findings)
	return findings, sum
}

// directivesFor parses the annotations of every file in the package,
// keyed by filename.
func directivesFor(pkg *Package, known map[string]bool) map[string]*fileDirectives {
	dirs := map[string]*fileDirectives{}
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		dirs[name] = parseDirectives(pkg.Fset, f, known)
	}
	return dirs
}
