package main

// Cold-open / demand-paging benchmarks (-json2): how fast a populated
// database opens when application objects stay on disk versus full
// materialization (open, then touch every instance), plus the steady-state
// cost of
// faulting evicted objects back in. Written as a JSON artifact
// (BENCH_2.json) so the open-latency claim is reproducible.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"sentinel/internal/bench"
	"sentinel/internal/core"
	"sentinel/internal/oid"
	"sentinel/internal/value"
)

type coldOpenResult struct {
	Name            string  `json:"name"`
	Millis          float64 `json:"ms,omitempty"`
	NsPerOp         float64 `json:"ns_per_op,omitempty"`
	ObjectsResident int     `json:"objects_resident,omitempty"`
	ObjectsTotal    int     `json:"objects_total,omitempty"`
	Faults          uint64  `json:"faults,omitempty"`
	Evictions       uint64  `json:"evictions,omitempty"`
}

type coldOpenReport struct {
	GeneratedBy string           `json:"generated_by"`
	GoMaxProcs  int              `json:"gomaxprocs"`
	GoVersion   string           `json:"go_version"`
	Population  int              `json:"population"`
	MaxResident int              `json:"max_resident"`
	OpenSpeedup float64          `json:"open_speedup_lazy_vs_eager"`
	Results     []coldOpenResult `json:"results"`
}

// populateColdDir fills dir with n Employee objects and closes cleanly, so
// reopen measures pure open cost (no WAL replay).
func populateColdDir(dir string, n int) ([]oid.OID, error) {
	opts := core.Options{Dir: dir, Output: io.Discard}
	opts.Schema = func(db *core.Database) error { return bench.InstallOrgSchema(db) }
	db, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	ids := make([]oid.OID, n)
	const batch = 1000
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		if err := db.Atomically(func(tx *core.Tx) error {
			for i := lo; i < hi; i++ {
				var err error
				ids[i], err = db.NewObject(tx, "Employee", map[string]value.Value{
					"name":   value.Str(fmt.Sprintf("e%d", i)),
					"salary": value.Float(float64(i)),
				})
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			db.Close()
			return nil, err
		}
	}
	return ids, db.Close()
}

func coldOpts(dir string, maxResident int) core.Options {
	opts := core.Options{Dir: dir, Output: io.Discard, MaxResidentObjects: maxResident}
	opts.Schema = func(db *core.Database) error { return bench.InstallOrgSchema(db) }
	return opts
}

// timeOpen opens the database `rounds` times and returns the best
// wall-clock duration plus the last handle's stats (the handle is closed).
// With touchAll the timed region also reads one attribute of every Employee,
// so every application object is materialized: the eager baseline.
func timeOpen(dir string, maxResident int, touchAll bool, rounds int) (time.Duration, core.Snapshot, error) {
	best := time.Duration(1<<62 - 1)
	var stats core.Snapshot
	for i := 0; i < rounds; i++ {
		start := time.Now()
		db, err := core.Open(coldOpts(dir, maxResident))
		if err != nil {
			return 0, stats, err
		}
		if touchAll {
			err := db.Atomically(func(tx *core.Tx) error {
				for _, id := range db.InstancesOf("Employee") {
					if _, err := db.GetSys(tx, id, "salary"); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				db.Close()
				return 0, stats, err
			}
		}
		d := time.Since(start)
		if d < best {
			best = d
		}
		stats = db.Stats()
		if err := db.Close(); err != nil {
			return 0, stats, err
		}
	}
	return best, stats, nil
}

// runColdOpenBench builds a population-object database and measures lazy vs
// eager open latency, then fault and resident-hit read costs under a
// maxResident ceiling, writing the report to path.
func runColdOpenBench(path string, population, maxResident int) error {
	dir, err := os.MkdirTemp("", "sentinel-coldopen-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ids, err := populateColdDir(dir, population)
	if err != nil {
		return err
	}

	rep := coldOpenReport{
		GeneratedBy: "sentinel-bench -json2",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Population:  population,
		MaxResident: maxResident,
	}

	lazyDur, lazyStats, err := timeOpen(dir, maxResident, false, 3)
	if err != nil {
		return fmt.Errorf("lazy open: %w", err)
	}
	rep.Results = append(rep.Results, coldOpenResult{
		Name:            "open/lazy",
		Millis:          float64(lazyDur.Nanoseconds()) / 1e6,
		ObjectsResident: lazyStats.Objects.Resident,
		ObjectsTotal:    lazyStats.Objects.Total,
	})

	eagerDur, eagerStats, err := timeOpen(dir, 0, true, 3)
	if err != nil {
		return fmt.Errorf("eager open: %w", err)
	}
	rep.Results = append(rep.Results, coldOpenResult{
		Name:            "open/eager",
		Millis:          float64(eagerDur.Nanoseconds()) / 1e6,
		ObjectsResident: eagerStats.Objects.Resident,
		ObjectsTotal:    eagerStats.Objects.Total,
	})
	if lazyDur > 0 {
		rep.OpenSpeedup = float64(eagerDur.Nanoseconds()) / float64(lazyDur.Nanoseconds())
	}

	// Steady-state paging: random reads over the full population with the
	// resident ceiling — most touches fault and trigger eviction churn.
	db, err := core.Open(coldOpts(dir, maxResident))
	if err != nil {
		return err
	}
	defer db.Close()
	faultBench := testing.Benchmark(func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[rng.Intn(len(ids))]
			if err := db.Atomically(func(tx *core.Tx) error {
				_, err := db.GetSys(tx, id, "salary")
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	s := db.Stats()
	rep.Results = append(rep.Results, coldOpenResult{
		Name:            "read/random-faulting",
		NsPerOp:         float64(faultBench.T.Nanoseconds()) / float64(faultBench.N),
		ObjectsResident: s.Objects.Resident,
		Faults:          s.Storage.Faults,
		Evictions:       s.Storage.Evictions,
	})

	hot := ids[:16] // fits the ceiling: steady resident hits after warmup
	hotBench := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Atomically(func(tx *core.Tx) error {
				_, err := db.GetSys(tx, hot[i%len(hot)], "salary")
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Results = append(rep.Results, coldOpenResult{
		Name:    "read/resident-hit",
		NsPerOp: float64(hotBench.T.Nanoseconds()) / float64(hotBench.N),
	})

	for _, r := range rep.Results {
		if r.Millis > 0 {
			fmt.Fprintf(os.Stderr, "%-22s %10.2f ms   resident=%d total=%d\n",
				r.Name, r.Millis, r.ObjectsResident, r.ObjectsTotal)
		} else {
			fmt.Fprintf(os.Stderr, "%-22s %10.1f ns/op faults=%d evictions=%d\n",
				r.Name, r.NsPerOp, r.Faults, r.Evictions)
		}
	}
	fmt.Fprintf(os.Stderr, "open speedup (lazy vs eager): %.1fx\n", rep.OpenSpeedup)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
