package main

import (
	"fmt"
	"io"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/vfs"
)

// commit_durable: the same Send path as raise_mem with storage under it and
// two writers. Stated flush policy: SyncOnCommit=true, GroupCommitWindow=0,
// on a simulated device that takes 200 µs per fsync; default
// CheckpointBytes (4 MiB), so auto-checkpoints land inside the window.
// Two closed-loop committers (= nproc) each own half of 10,000 stocks
// (rows ≫ clients), so no operation can conflict with another; every
// SetPrice fires alert (immediate) and audit (detached, on the executor
// pool, all firings queueing on the one AUDIT object), every fourth
// operation moves the committer's index and so completes buy (deferred).
// The commit pipeline, WAL group commit and the detached pool do most of
// the work; rule evaluation is a small share.
const (
	durableStocks     = 10000
	durableCommitters = 2
	durableIndexEvery = 4
	deviceFsync       = 200 * time.Microsecond
)

func durableOptions(fs vfs.FS) core.Options {
	return core.Options{
		Dir:           dbDir,
		VFS:           fs,
		SyncOnCommit:  true,
		AsyncDetached: true,
		Output:        io.Discard,
	}
}

func buildCommitDurable(cfg config) (*embedded, error) {
	fs := newDevFS(vfs.NewLatency(vfs.NewMem(), deviceFsync, 0))
	db, err := core.Open(durableOptions(fs))
	if err != nil {
		return nil, err
	}
	mk, err := buildMarket(db, marketSpec{
		stocks:   cfg.scaled(durableStocks),
		parts:    durableCommitters,
		padBytes: 64,
		audit:    true,
		buyAll:   true,
	}, newRNG(cfg.seed))
	if err != nil {
		db.Close()
		return nil, err
	}
	e := &embedded{db: db, fs: fs, mk: mk, workers: durableCommitters, slice: 2 * time.Second, rank: medianSlice}
	e.op = durableOp(e, cfg.seed)
	e.after = recoverAndProbe
	return e, nil
}

// durableOp returns the committers' operation: each worker has its own
// generator (seeded from the run's seed) and its own part of the market.
func durableOp(e *embedded, seed int64) func(w int, lastTx *uint64) bool {
	gens := make([]*rng, len(e.mk.parts))
	count := make([]int64, len(e.mk.parts))
	for w := range gens {
		gens[w] = newRNG(seed*1000 + int64(w) + 1)
	}
	return func(w int, lastTx *uint64) bool {
		p, gen := e.mk.parts[w], gens[w]
		count[w]++
		if count[w]%durableIndexEvery == 0 {
			v := gen.intn(priceRange)
			err := send(e.db, p.index, "SetValue", v, lastTx)
			if err == nil {
				p.setValue(v)
			}
			return err == nil
		}
		k := int(gen.intn(int64(len(p.stocks))))
		price := gen.intn(priceRange)
		err := send(e.db, p.stocks[k], "SetPrice", price, lastTx)
		if err == nil {
			p.setPrice(k, price, p.watched(k, true))
		}
		return err == nil
	}
}

// recoverAndProbe is commit_durable's epilogue. The database is closed
// without a checkpoint and reopened, which replays the WAL; the first
// successful Send ends the recovery clock, and every acknowledged commit
// must read back. Killing a process leaves the OS cache intact, so the
// durability probe discards unflushed bytes itself: 500 commits on a
// fault-journaling filesystem, a power cut after the last operation that
// keeps only fsynced data, and a reopen on exactly those bytes.
func recoverAndProbe(e *embedded, r *run) error {
	t0 := time.Now()
	if err := e.db.CloseAbrupt(); err != nil {
		return fmt.Errorf("close abrupt: %w", err)
	}
	db, err := core.Open(durableOptions(e.fs))
	if err != nil {
		return fmt.Errorf("reopen after abrupt close: %w", err)
	}
	e.db = db
	p := e.mk.parts[0]
	price := p.price[0] // rewrite the value already there: the model is unchanged
	r.attempted++
	if err := send(db, p.stocks[0], "SetPrice", price, nil); err != nil {
		r.fail(1, "first send after recovery: %v", err)
	} else {
		p.setPrice(0, price, true)
	}
	r.m["core.recovery_ms"] = float64(time.Since(t0)) / 1e6
	db.WaitIdle()

	read, done := snapshotReader(db)
	checked, bad, first := e.mk.verify(read, nil)
	done()
	r.attempted += checked
	r.fail(bad, "after recovery: %d of %d attributes differ; first: %s", bad, checked, first)

	checked, bad, first, err = durabilityProbe(500)
	if err != nil {
		return err
	}
	r.attempted += checked
	r.fail(bad, "durability probe: %d of %d attributes differ; first: %s", bad, checked, first)
	return nil
}

// durabilityProbe commits n sends with SyncOnCommit on vfs.NewFault, then
// materialises the state a power cut would leave (CrashSynced: data
// survives only if an fsync of its file followed it) into a fresh
// filesystem and verifies every acknowledged commit there.
func durabilityProbe(n int) (checked, bad int64, first string, err error) {
	fault := vfs.NewFault()
	opts := durableOptions(fault)
	opts.AsyncDetached = false
	db, err := core.Open(opts)
	if err != nil {
		return 0, 0, "", fmt.Errorf("durability probe open: %w", err)
	}
	gen := newRNG(int64(n))
	mk, err := buildMarket(db, marketSpec{stocks: 64, parts: 1, padBytes: 8, audit: true, buyAll: true}, gen)
	if err != nil {
		db.CloseAbrupt()
		return 0, 0, "", fmt.Errorf("durability probe: %w", err)
	}
	p := mk.parts[0]
	for i := 0; i < n; i++ {
		k := int(gen.intn(int64(len(p.stocks))))
		price := gen.intn(priceRange)
		if err := send(db, p.stocks[k], "SetPrice", price, nil); err != nil {
			db.CloseAbrupt()
			return 0, 0, "", fmt.Errorf("durability probe commit %d: %w", i, err)
		}
		p.setPrice(k, price, p.watched(k, true))
	}
	state := fault.CrashState(fault.Ops(), vfs.CrashSynced)
	if err := db.CloseAbrupt(); err != nil {
		return 0, 0, "", err
	}
	mem := vfs.NewMem()
	mem.Install(state)
	opts.VFS = mem
	re, err := core.Open(opts)
	if err != nil {
		return 0, 0, "", fmt.Errorf("durability probe reopen: %w", err)
	}
	defer re.Close()
	read, done := snapshotReader(re)
	defer done()
	checked, bad, first = mk.verify(read, nil)
	return checked, bad, first, nil
}
