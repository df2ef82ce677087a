package main

import (
	"io"
	"time"

	"sentinel/internal/core"
)

// raise_mem: the paper's core path and nothing else. An in-memory database
// (no WAL, no heap, no network), one closed-loop caller, 2,000 stocks and
// 1,000 rules of which 998 are bystanders subscribed to stocks other than
// the one being updated. Every fourth operation moves the index (which
// completes the cross-class buy rule), every 500th subscribes or
// unsubscribes a bystander, so the consumer cache sees deterministic churn.
// A storage or network optimisation must show no change here.
const (
	raiseStocks     = 2000
	raiseBystanders = 998
	raiseIndexEvery = 4
	raiseChurnEvery = 500
)

func buildRaiseMem(cfg config) (*embedded, error) {
	db, err := core.Open(core.Options{Output: io.Discard})
	if err != nil {
		return nil, err
	}
	gen := newRNG(cfg.seed)
	nBy := cfg.scaled(raiseBystanders)
	mk, err := buildMarket(db, marketSpec{
		stocks:     cfg.scaled(raiseStocks),
		parts:      1,
		padBytes:   16,
		bystanders: nBy,
	}, gen)
	if err != nil {
		db.Close()
		return nil, err
	}
	p := mk.parts[0]
	subscribed := make([]bool, nBy)
	for i := range subscribed {
		subscribed[i] = true
	}
	var n int64
	op := func(_ int, lastTx *uint64) bool {
		n++
		var err error
		switch {
		case n%raiseChurnEvery == 0:
			i := int(n/raiseChurnEvery) % nBy
			target := p.stocks[1+i%(len(p.stocks)-1)]
			err = db.Atomically(func(t *core.Tx) error {
				if lastTx != nil {
					*lastTx = uint64(t.ID())
				}
				if subscribed[i] {
					return db.UnsubscribeRule(t, bystander(i), target)
				}
				return db.SubscribeRule(t, bystander(i), target)
			})
			if err == nil {
				subscribed[i] = !subscribed[i]
			}
		case n%raiseIndexEvery == 0:
			v := gen.intn(priceRange)
			if err = send(db, p.index, "SetValue", v, lastTx); err == nil {
				p.setValue(v)
			}
		default:
			k := int(gen.intn(int64(len(p.stocks))))
			price := gen.intn(priceRange)
			if err = send(db, p.stocks[k], "SetPrice", price, lastTx); err == nil {
				p.setPrice(k, price, p.watched(k, false))
			}
		}
		return err == nil
	}
	return &embedded{db: db, mk: mk, workers: 1, slice: 250 * time.Millisecond, rank: bestDecile, txMask: 15, op: op}, nil
}
