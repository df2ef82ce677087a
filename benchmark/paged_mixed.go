package main

import (
	"io"
	"math/rand"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/heap"
	"sentinel/internal/oid"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// paged_mixed: the working set is far larger than both caches. 60,000
// stocks carrying a 256-byte pad (about 20 MB of heap) against
// MaxResidentObjects=4096 and PoolPages=256 (2 MiB); raise_mem and
// commit_durable are the fits-in-cache side. Storage is an in-memory
// filesystem with no fsync cost (SyncOnCommit=false, stated), so the time
// goes to the pager, the directory, MVCC, the heap and the buffer pool, not
// to a device. One closed-loop caller, so fault, eviction and page-read
// counts repeat exactly for a seed. Keys are Zipf(1.1); the mix is 80 %
// snapshot Get, 15 % Send SetPrice (a write plus the alert rule) and 5 %
// LookupByAttr on the secondary index over Stock.limit — reads beside
// writes on one directory, so a gain for readers that costs writers (or the
// reverse) shows. Set-up is populate + checkpoint + close + cold reopen.
const (
	pagedStocks   = 60000
	pagedPad      = 256
	pagedResident = 4096
	pagedPool     = 256
	pagedZipfS    = 1.1
)

func pagedOptions(fs vfs.FS, cfg config) core.Options {
	return core.Options{
		Dir:                dbDir,
		VFS:                fs,
		MaxResidentObjects: cfg.scaled(pagedResident),
		PoolPages:          cfg.scaled(pagedPool),
		Output:             io.Discard,
	}
}

func buildPagedMixed(cfg config) (*embedded, error) {
	fs := newDevFS(vfs.NewMem())
	db, err := core.Open(pagedOptions(fs, cfg))
	if err != nil {
		return nil, err
	}
	gen := newRNG(cfg.seed)
	mk, err := buildMarket(db, marketSpec{stocks: cfg.scaled(pagedStocks), parts: 1, padBytes: pagedPad, indexLimit: true}, gen)
	if err != nil {
		db.Close()
		return nil, err
	}
	// Close checkpoints; the reopen below starts with nothing resident.
	if err := db.Close(); err != nil {
		return nil, err
	}
	if db, err = core.Open(pagedOptions(fs, cfg)); err != nil {
		return nil, err
	}
	p := mk.parts[0]
	n := len(p.stocks)
	zipf := rand.NewZipf(gen.Rand, pagedZipfS, 1, uint64(n-1))
	// Rank r of the Zipf law maps to a fixed random stock, so the hot set is
	// spread over the heap's pages instead of sitting in creation order.
	perm := gen.Perm(n)
	touched := make([]bool, n)
	e := &embedded{db: db, fs: fs, mk: mk, workers: 1, slice: 250 * time.Millisecond, rank: bestDecile, txMask: 7}
	var lookups durs
	e.op = func(_ int, lastTx *uint64) bool {
		k := perm[zipf.Uint64()]
		switch c := gen.intn(100); {
		case c < 80:
			snap := e.db.BeginSnapshot()
			if lastTx != nil {
				*lastTx = uint64(snap.ID())
			}
			v, err := e.db.Get(snap, p.stocks[k], "price")
			e.db.Abort(snap)
			got, _ := v.AsInt()
			return err == nil && got == p.price[k]
		case c < 95:
			price := gen.intn(priceRange)
			err := send(e.db, p.stocks[k], "SetPrice", price, lastTx)
			if err == nil {
				p.setPrice(k, price, false)
				touched[k] = true
			}
			return err == nil
		default:
			var t0 time.Time
			if lastTx != nil {
				t0 = time.Now()
			}
			snap := e.db.BeginSnapshot()
			ids, indexed, err := e.db.LookupByAttr(snap, "Stock", "limit", value.Int(p.limit[k]))
			e.db.Abort(snap)
			if lastTx != nil {
				*lastTx = uint64(snap.ID())
				lookups = append(lookups, time.Since(t0))
			}
			return err == nil && indexed && containsOID(ids, p.stocks[k])
		}
	}
	e.touched = func(_, k int) bool { return touched[k] }
	e.layers = func(r *run) {
		r.m["index.lookup_p50_us"] = lookups.p50us()
		get, put, err := heapReplay(p.stocks, perm, cfg)
		if err != nil {
			r.fail(1, "heap replay: %v", err)
		}
		r.m["heap.get_ns_per_obj"], r.m["heap.put_ns_per_obj"] = get, put
	}
	return e, nil
}

func containsOID(ids []oid.OID, id oid.OID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// heapReplay drives a standalone heap.Store — the layer alone, no
// directory, no MVCC, no rules — with the workload's object sizes and its
// Zipf key sequence over a pool of the workload's size, and returns the
// cost of one Get and one Put.
func heapReplay(ids []oid.OID, perm []int, cfg config) (getNs, putNs float64, err error) {
	s, err := heap.Open("replay", heap.Options{PoolPages: cfg.scaled(pagedPool), VFS: vfs.NewMem()})
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	img := make([]byte, pagedPad+48)
	for _, id := range ids {
		if err := s.Put(id, img); err != nil {
			return 0, 0, err
		}
	}
	gen := newRNG(cfg.seed)
	zipf := rand.NewZipf(gen.Rand, pagedZipfS, 1, uint64(len(ids)-1))
	const n = 20000
	keys := make([]oid.OID, n)
	for i := range keys {
		keys[i] = ids[perm[zipf.Uint64()]]
	}
	t0 := time.Now()
	for _, id := range keys {
		if _, _, err := s.Get(id); err != nil {
			return 0, 0, err
		}
	}
	getNs = float64(time.Since(t0)) / n
	t0 = time.Now()
	for _, id := range keys {
		if err := s.Put(id, img); err != nil {
			return 0, 0, err
		}
	}
	putNs = float64(time.Since(t0)) / n
	return getNs, putNs, nil
}
