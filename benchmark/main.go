// Command benchmark is the repository's one benchmark: four workloads over
// the paper's portfolio schema, end-to-end metrics measured with tracing
// off, and per-layer metrics from a separate traced run. BENCHMARK.json at
// the repository root names every workload and metric; README.md in this
// directory explains them.
//
//	go run ./benchmark                       every workload, untraced
//	go run ./benchmark -trace 1 -out r.json  plus the traced pass
//	go run ./benchmark -workload raise_mem -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -aa 10                A/A spreads against the bounds
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]func(config) (*run, error){
	"raise_mem": func(c config) (*run, error) {
		return runEmbedded(c, func() (*embedded, error) { return buildRaiseMem(c) })
	},
	"commit_durable": func(c config) (*run, error) {
		return runEmbedded(c, func() (*embedded, error) { return buildCommitDurable(c) })
	},
	"paged_mixed": func(c config) (*run, error) {
		return runEmbedded(c, func() (*embedded, error) { return buildPagedMixed(c) })
	},
	"remote_push": runRemotePush,
}

// runOne runs one workload once and shapes its result to the spec.
func runOne(spec *benchSpec, cfg config) (*outcome, []string, error) {
	fn := workloads[cfg.workload]
	if fn == nil || !spec.workload(cfg.workload) {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r, err := fn(cfg)
	if err != nil {
		return nil, nil, err
	}
	ms, err := spec.shape(r.m, cfg.traced)
	if err != nil {
		return nil, r.notes, err
	}
	if r.attempted < 1 {
		return nil, r.notes, fmt.Errorf("no operation was attempted")
	}
	return &outcome{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}, r.notes, nil
}

// environment is recorded with every result file: the figures are the
// sandbox's, and a comparison across machines is not a comparison.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func currentEnv(seed int64, seconds float64) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
	}
}

func printOutcome(w string, traced bool, o *outcome, notes []string) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s): correct=%t attempted=%d failed=%d fail_ratio=%g\n",
		w, pass, o.Correct, o.Attempted, o.Failed, float64(o.Failed)/float64(o.Attempted))
	for _, n := range sortedNames(o.Metrics) {
		fmt.Printf("   %-40s %16.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's result line last")
		trace    = flag.Int("trace", 0, "0 = untraced pass (end-to-end metrics); 1 = traced pass (per-layer metrics; with no -workload: both)")
		out      = flag.String("out", "", "write the results as JSON to this file (-aa appends its sets to it)")
		specPath = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		aa       = flag.Int("aa", 0, "run this many full untraced sets and report spreads against the bounds")
		compare  = flag.Bool("compare", false, "compare two -aa result files: -compare parent.json change.json")
		base     = config{scale: 1, setupReps: 3}
	)
	flag.Int64Var(&base.seed, "seed", 1, "generator seed; the same seed gives the same inputs")
	flag.Float64Var(&base.seconds, "seconds", 0, "measured window per run (default: run_seconds in BENCHMARK.json)")
	flag.StringVar(&base.traceDir, "tracedir", "benchmark/out", "directory for the traced pass's span files")
	flag.Parse()
	if err := mainErr(base, *workload, *trace, *out, *specPath, *aa, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(base config, workload string, trace int, out, specPath string, aa int, compare bool, args []string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if base.seconds <= 0 {
		base.seconds = float64(spec.RunSeconds)
	}
	if aa > 0 {
		return runAA(spec, base, aa, out)
	}

	if workload != "" {
		cfg := base
		cfg.workload, cfg.traced = workload, trace != 0
		o, notes, err := runOne(spec, cfg)
		if err != nil {
			return err
		}
		printOutcome(workload, cfg.traced, o, notes)
		line, err := json.Marshal(o)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !o.Correct {
			return fmt.Errorf("%s: %d of %d checks failed", workload, o.Failed, o.Attempted)
		}
		return nil
	}

	seed, seconds := base.seed, base.seconds
	res := resultFile{Env: currentEnv(seed, seconds)}
	set := resultSet{Seed: seed, Untraced: map[string]outcome{}, Traced: map[string]outcome{}}
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit, seed, seconds)
	bad := 0
	start := time.Now()
	for _, w := range spec.Workloads {
		for pass := 0; pass <= trace && pass <= 1; pass++ {
			cfg := base
			cfg.workload, cfg.traced = w.Name, pass == 1
			o, notes, err := runOne(spec, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printOutcome(w.Name, cfg.traced, o, notes)
			if cfg.traced {
				set.Traced[w.Name] = *o
			} else {
				set.Untraced[w.Name] = *o
			}
			if !o.Correct {
				bad++
			}
		}
	}
	res.Sets = []resultSet{set}
	fmt.Printf("total %.1fs\n", time.Since(start).Seconds())
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs had incorrect outputs", bad)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
