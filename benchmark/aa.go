package main

// aa.go holds the two commands that turn runs into verdicts. -aa measures
// the benchmark against itself: N sets of the same code, and for every
// end-to-end metric × workload the spread between the quartiles, which must
// stay inside the metric's bound or the benchmark cannot resolve a change of
// that size. -compare applies the rule for a later change: a gain is claimed
// only when the change wins at least nine tenths of the pairs and the
// medians differ by more than the parent's own inter-quartile distance;
// anything else is "unresolved", never "unchanged".

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// resultSet is one pass over every workload with one seed.
type resultSet struct {
	Seed     int64              `json:"seed"`
	Untraced map[string]outcome `json:"untraced"`
	Traced   map[string]outcome `json:"traced,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Sets []resultSet `json:"sets"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(values, n=4) computes them (the
// exclusive method), which is what the driver uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// values collects one metric of one workload over the sets.
func (rf *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, set := range rf.Sets {
		if o, ok := set.Untraced[workload]; ok {
			if m, ok := o.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// runAA runs n untraced sets with seeds seed, seed+1, … and reports every
// end-to-end metric's spread against its bound. With out set, the sets are
// appended to that file, so parent and change can be run in alternation.
func runAA(spec *benchSpec, base config, n int, out string) error {
	rf := &resultFile{Env: currentEnv(base.seed, base.seconds)}
	if out != "" {
		if old, err := readResults(out); err == nil {
			rf = old
		}
	}
	incorrect := 0
	for i := 0; i < n; i++ {
		set := resultSet{Seed: base.seed + int64(i), Untraced: map[string]outcome{}}
		for _, w := range spec.Workloads {
			cfg := base
			cfg.workload, cfg.seed = w.Name, set.Seed
			o, notes, err := runOne(spec, cfg)
			if err != nil {
				return fmt.Errorf("set %d %s: %w", i, w.Name, err)
			}
			if !o.Correct {
				incorrect++
				printOutcome(w.Name, false, o, notes)
			}
			set.Untraced[w.Name] = *o
		}
		rf.Sets = append(rf.Sets, set)
		fmt.Printf("set %d/%d (seed %d) done\n", i+1, n, set.Seed)
		if out != "" {
			if err := writeJSON(out, rf); err != nil {
				return err
			}
		}
	}
	over := 0
	fmt.Printf("%-16s %-14s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(rf.values(w.Name, m.Name))
			spread := ratio(q3-q1, q2)
			flag := ""
			// setup_s is bounded on its median only; its spread is reported.
			if spread > m.Bound && m.Name != "setup_s" {
				flag = "  OVER BOUND"
				over++
			}
			fmt.Printf("%-16s %-14s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", w.Name, m.Name, q1, q2, q3, spread, m.Bound, flag)
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs had incorrect outputs", incorrect)
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound over %d sets", over, len(rf.Sets))
	}
	return nil
}

// worse returns by what share of the parent's median the change's median is
// worse (negative when it is better).
func worse(m metricSpec, parent, change float64) float64 {
	if m.Better == "higher" {
		return ratio(parent-change, parent)
	}
	return ratio(change-parent, parent)
}

// compareFiles prints, per workload × end-to-end metric, both sides'
// medians and quartiles and the two verdicts: whether a gain may be claimed,
// and whether the change stays inside the regression bound.
func compareFiles(spec *benchSpec, parentPath, changePath string) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	regressions := 0
	fmt.Printf("%-16s %-14s %12s %12s %12s %12s %7s  %-11s %s\n",
		"workload", "metric", "parent med", "parent iqr", "change med", "change iqr", "wins", "gain", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			pv, cv := parent.values(w.Name, m.Name), change.values(w.Name, m.Name)
			pairs := len(pv)
			if len(cv) < pairs {
				pairs = len(cv)
			}
			if pairs == 0 {
				continue
			}
			wins, losses := 0, 0
			for i := 0; i < pairs; i++ {
				switch d := worse(m, pv[i], cv[i]); {
				case d < 0:
					wins++
				case d > 0:
					losses++
				}
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			gap := -worse(m, p2, c2) * p2 // positive when the change is better
			gain := "unresolved"
			if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && gap > p3-p1 {
				gain = "gain"
			}
			bound := "within"
			switch {
			case ratio(p3-p1, p2) > m.Bound || ratio(c3-c1, c2) > m.Bound:
				bound = "unresolved (spread wider than bound)"
			case worse(m, p2, c2) > m.Bound:
				bound = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-16s %-14s %12.6g %12.6g %12.6g %12.6g %3d/%-3d  %-11s %s\n",
				w.Name, m.Name, p2, p3-p1, c2, c3-c1, wins, pairs, gain, bound)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressions)
	}
	return nil
}
