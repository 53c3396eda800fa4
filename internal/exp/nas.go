package exp

import (
	"fmt"

	"openmxsim/internal/nas"
	"openmxsim/internal/nic"
	"openmxsim/internal/units"
)

// nasStrategies are the four columns of Tables IV and V.
var nasStrategies = []struct {
	name     string
	strategy nic.Strategy
}{
	{"Coal.", nic.StrategyTimeout},
	{"Disabled", nic.StrategyDisabled},
	{"Open-MX", nic.StrategyOpenMX},
	{"Stream", nic.StrategyStream},
}

// table4Workloads is the paper's benchmark list, in table order.
var table4Workloads = []struct {
	name  string
	class byte
}{
	{"bt", 'C'}, {"cg", 'C'}, {"ep", 'C'},
	{"ft", 'C'}, {"ft", 'B'},
	{"is", 'C'}, {"is", 'B'},
	{"lu", 'C'}, {"mg", 'C'}, {"sp", 'C'},
}

// quickTable4Workloads shrinks classes so the sweep stays fast.
var quickTable4Workloads = []struct {
	name  string
	class byte
}{
	{"is", 'W'}, {"cg", 'S'}, {"ep", 'S'}, {"ft", 'S'},
}

// nasSweep runs a workload list across the four strategies and returns
// results keyed by [workload][strategy].
func nasSweep(opts Options, workloads []struct {
	name  string
	class byte
}, ranks int) (map[string]map[string]*nas.Result, []string, []string) {
	results := map[string]map[string]*nas.Result{}
	var order, notes []string
	for _, wls := range workloads {
		wl, err := nas.Get(wls.name, wls.class, ranks)
		if err != nil {
			notes = append(notes, fmt.Sprintf("ERROR %s.%c: %v", wls.name, wls.class, err))
			continue
		}
		key := wl.FullName()
		order = append(order, key)
		results[key] = map[string]*nas.Result{}
		if !wl.MemOK {
			continue // rendered as "Not enough memory", like the paper
		}
		for _, st := range nasStrategies {
			cfg := opts.config()
			cfg.Strategy = st.strategy
			res, err := nas.Run(cfg, wl)
			if err != nil {
				notes = append(notes, fmt.Sprintf("ERROR %s/%s: %v", key, st.name, err))
				continue
			}
			results[key][st.name] = res
		}
	}
	return results, order, notes
}

// Table4 reproduces Table IV: NAS Parallel Benchmark execution times with
// 16 processes on 2 nodes under each coalescing strategy, with speedup
// percentages relative to the default coalescing.
func Table4(opts Options) *Report {
	workloads := table4Workloads
	ranks := 16
	if opts.Quick {
		workloads = quickTable4Workloads
	}
	results, order, notes := nasSweep(opts, workloads, ranks)

	rep := &Report{
		ID:     "table4",
		Title:  fmt.Sprintf("NAS Parallel Benchmarks, %d processes on 2 nodes: execution time (s)", ranks),
		Header: []string{"NAS", "Coal.", "Disabled", "Open-MX", "Stream"},
		Notes: append([]string{
			"paper: disabling coalescing costs up to 11.6% on is.C; Open-MX coalescing gains 7.3%/8.2% on is.C/is.B",
			"speedup percentages are relative to the default coalescing column",
		}, notes...),
	}
	for _, key := range order {
		row := []string{key}
		base := results[key]["Coal."]
		if base == nil {
			row = append(row, "Not enough memory", "", "", "")
			rep.Rows = append(rep.Rows, row)
			continue
		}
		for _, st := range nasStrategies {
			res := results[key][st.name]
			if res == nil {
				row = append(row, "-")
				continue
			}
			cell := seconds(res.Elapsed)
			if st.name != "Coal." {
				pct := 100 * (float64(base.Elapsed) - float64(res.Elapsed)) / float64(base.Elapsed)
				if pct >= 1 || pct <= -1 {
					cell += fmt.Sprintf(" (%+.1f%%)", pct)
				}
			}
			row = append(row, cell)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Table5 reproduces Table V: total interrupts during the IS runs.
func Table5(opts Options) *Report {
	workloads := []struct {
		name  string
		class byte
	}{{"is", 'C'}, {"is", 'B'}}
	ranks := 16
	if opts.Quick {
		workloads = []struct {
			name  string
			class byte
		}{{"is", 'W'}, {"is", 'S'}}
	}
	results, order, notes := nasSweep(opts, workloads, ranks)

	rep := &Report{
		ID:     "table5",
		Title:  "Total interrupts during the NAS IS runs (both nodes)",
		Header: []string{"NAS", "Coal.", "Disabled", "Open-MX", "Stream"},
		Notes: append([]string{
			"paper is.C: 86.4k / 1.93M (x22) / 100.5k (+16%) / 101.6k (+17%)",
			"paper is.B: 22.4k / 496k (x22) / 26.7k (+19%) / 27.2k (+21%)",
		}, notes...),
	}
	for _, key := range order {
		row := []string{key}
		base := results[key]["Coal."]
		for _, st := range nasStrategies {
			res := results[key][st.name]
			if res == nil {
				row = append(row, "-")
				continue
			}
			cell := units.FormatCount(float64(res.Interrupts))
			if st.name != "Coal." && base != nil && base.Interrupts > 0 {
				ratio := float64(res.Interrupts) / float64(base.Interrupts)
				if ratio >= 2 {
					cell += fmt.Sprintf(" (x%.0f)", ratio)
				} else {
					cell += fmt.Sprintf(" (%+.0f%%)", 100*(ratio-1))
				}
			}
			row = append(row, cell)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
