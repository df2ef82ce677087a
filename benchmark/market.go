package main

// market.go is the schema every workload shares — the paper's §5 portfolio
// example — and the generator-side model that predicts what the rules must
// have done, which the oracle compares against the database after each run.

import (
	"fmt"
	"strings"

	"sentinel/internal/core"
	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// marketClasses declares the four classes. alert is the class-level
// immediate rule: it is checked on every SetPrice of every stock.
const marketClasses = `
class Stock reactive persistent {
	attr price int
	attr limit int
	attr alerts int
	attr pad string
	event end method SetPrice(p int) { self.price := p }
	rule alert on end Stock::SetPrice(int p) if p > self.limit then self.alerts := self.alerts + 1
}
class Index reactive persistent {
	attr value int
	event end method SetValue(v int) { self.value := v }
}
class Portfolio persistent {
	attr cash int
	attr hits int
	method Hit() { self.hits := self.hits + 1 }
}
class Audit persistent {
	attr n int
	method Bump() { self.n := self.n + 1 }
}
`

// auditRule is the detached rule: one firing, in its own transaction on the
// executor pool, per SetPrice. Bump takes its exclusive lock up front, so
// concurrent firings queue on AUDIT instead of deadlocking on an upgrade.
const auditRule = `rule audit for Stock on end Stock::SetPrice(int p) then AUDIT!Bump() coupling detached`

// priceRange bounds generated prices and limits: a uniform price beats a
// uniform limit half the time, so alert's action runs on about every second
// SetPrice.
const priceRange = 6000

// buyEvery spaces the stocks the composite buy rule subscribes to.
const buyEvery = 8

// part is one committer's share of the market: its stocks, its index, its
// portfolio, and the buy rule subscribed across both classes. Committers
// never share a part, so their operations cannot conflict and the order the
// model sees is the order the database saw.
type part struct {
	stocks []oid.OID
	index  oid.OID
	pf     oid.OID

	// Model state, owned by the part's committer.
	limit  []int64
	price  []int64
	alerts []int64
	idxVal int64
	armed  bool // a subscribed SetPrice is waiting for the next SetValue
	hits   int64
	sets   int64 // SetPrice operations applied (audit firings owed)
}

type market struct {
	parts []*part
	audit oid.OID // Nil when the workload has no audit rule
}

type marketSpec struct {
	stocks     int  // total, split evenly over parts
	parts      int  // committers
	padBytes   int  // Stock.pad length
	audit      bool // install the detached audit rule
	buyAll     bool // subscribe buy to every buyEvery-th stock (else stock 0 only)
	bystanders int  // instance rules subscribed to stocks buy does not watch
	bindNames  bool // bind S<k> / IDX<i> so remote scripts can name them
	indexLimit bool // secondary index on Stock.limit, created before the stocks
}

// buildMarket defines the schema, creates the population and wires the
// rules. gen supplies each stock's limit.
func buildMarket(db *core.Database, spec marketSpec, gen *rng) (*market, error) {
	if err := db.Exec(marketClasses); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	if spec.indexLimit {
		if err := db.Exec(`index Stock.limit`); err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
	}
	m := &market{}
	pad := value.Str(strings.Repeat("x", spec.padBytes))
	per := spec.stocks / spec.parts
	for pi := 0; pi < spec.parts; pi++ {
		p := &part{
			stocks: make([]oid.OID, 0, per),
			limit:  make([]int64, per),
			price:  make([]int64, per),
			alerts: make([]int64, per),
		}
		for i := range p.limit {
			p.limit[i] = gen.intn(priceRange)
		}
		const batch = 500
		for len(p.stocks) < per {
			err := db.Atomically(func(t *core.Tx) error {
				for n := 0; n < batch && len(p.stocks) < per; n++ {
					id, err := db.NewObject(t, "Stock", map[string]value.Value{
						"limit": value.Int(p.limit[len(p.stocks)]),
						"pad":   pad,
					})
					if err != nil {
						return err
					}
					p.stocks = append(p.stocks, id)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("populate: %w", err)
			}
		}
		err := db.Atomically(func(t *core.Tx) error {
			var err error
			if p.index, err = db.NewObject(t, "Index", nil); err != nil {
				return err
			}
			if p.pf, err = db.NewObject(t, "Portfolio", nil); err != nil {
				return err
			}
			if err := db.Bind(t, fmt.Sprintf("PF%d", pi), p.pf); err != nil {
				return err
			}
			if spec.bindNames {
				if err := db.Bind(t, fmt.Sprintf("IDX%d", pi), p.index); err != nil {
					return err
				}
				for k, id := range p.stocks {
					if err := db.Bind(t, fmt.Sprintf("S%d", pi*per+k), id); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bind: %w", err)
		}
		// buy spans two classes: a SetPrice on a subscribed stock followed by
		// a SetValue on the index. Deferred, so it runs at commit inside the
		// SetValue transaction.
		rule := fmt.Sprintf("buy%d", pi)
		err = db.Exec(fmt.Sprintf(
			`rule %s on end Stock::SetPrice(int p) seq end Index::SetValue(int v) then PF%d!Hit() coupling deferred`,
			rule, pi))
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", rule, err)
		}
		err = db.Atomically(func(t *core.Tx) error {
			if err := db.SubscribeRule(t, rule, p.index); err != nil {
				return err
			}
			for k, id := range p.stocks {
				if !p.watched(k, spec.buyAll) {
					continue
				}
				if err := db.SubscribeRule(t, rule, id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", rule, err)
		}
		m.parts = append(m.parts, p)
	}
	// Bystanders: rules subscribed to stocks other than the one being
	// updated. The paper's claim is that they cost nothing on its path.
	p0 := m.parts[0]
	for i := 0; i < spec.bystanders; i++ {
		name := bystander(i)
		if err := db.Exec(fmt.Sprintf(
			`rule %s on end Stock::SetPrice(int p) if p < 0 then abort "bystander fired"`, name)); err != nil {
			return nil, fmt.Errorf("rule %s: %w", name, err)
		}
		target := p0.stocks[1+i%(len(p0.stocks)-1)]
		if err := db.Atomically(func(t *core.Tx) error { return db.SubscribeRule(t, name, target) }); err != nil {
			return nil, fmt.Errorf("subscribe %s: %w", name, err)
		}
	}
	if spec.audit {
		err := db.Atomically(func(t *core.Tx) error {
			var err error
			if m.audit, err = db.NewObject(t, "Audit", nil); err != nil {
				return err
			}
			return db.Bind(t, "AUDIT", m.audit)
		})
		if err != nil {
			return nil, fmt.Errorf("audit object: %w", err)
		}
		if err := db.Exec(auditRule); err != nil {
			return nil, fmt.Errorf("audit rule: %w", err)
		}
	}
	return m, nil
}

func bystander(i int) string { return fmt.Sprintf("by%d", i) }

// watched reports whether buy subscribes to the part's k-th stock.
func (p *part) watched(k int, buyAll bool) bool {
	if buyAll {
		return k%buyEvery == 0
	}
	return k == 0
}

// setPrice applies one SetPrice to the model.
func (p *part) setPrice(k int, price int64, watched bool) {
	p.price[k] = price
	if price > p.limit[k] {
		p.alerts[k]++
	}
	if watched {
		p.armed = true
	}
	p.sets++
}

// setValue applies one SetValue to the model: under the paper's parameter
// context a pending SetPrice is consumed by the detection it completes.
func (p *part) setValue(v int64) {
	p.idxVal = v
	if p.armed {
		p.hits++
		p.armed = false
	}
}

// dbDir is every persistent database's directory inside its filesystem.
const dbDir = "db"

// send runs one Send in its own transaction, the operation every embedded
// workload is built from. lastTx, when non-nil, receives the transaction's
// id for the traced pass.
func send(db *core.Database, target oid.OID, method string, arg int64, lastTx *uint64) error {
	return db.Atomically(func(t *core.Tx) error {
		if lastTx != nil {
			*lastTx = uint64(t.ID())
		}
		_, err := db.Send(t, target, method, value.Int(arg))
		return err
	})
}

// reader reads one attribute of one object as an int; the oracle runs the
// same comparison against an embedded database, a reopened one and a
// follower.
type reader func(id oid.OID, attr string) (int64, error)

func snapshotReader(db *core.Database) (reader, func()) {
	snap := db.BeginSnapshot()
	return func(id oid.OID, attr string) (int64, error) {
		v, err := db.Get(snap, id, attr)
		if err != nil {
			return 0, err
		}
		n, _ := v.AsInt()
		return n, nil
	}, func() { db.Abort(snap) }
}

// verify compares the database against the model and returns the number of
// attributes checked and the number that differ. touched, when non-nil,
// limits the per-stock check to stocks the run wrote (reading 60,000 cold
// objects back would otherwise dominate the run).
func (m *market) verify(read reader, touched func(pi, k int) bool) (checked, bad int64, first string) {
	check := func(id oid.OID, attr string, want int64, what string) {
		checked++
		got, err := read(id, attr)
		if err != nil || got != want {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s.%s = %d (err %v), model says %d", what, attr, got, err, want)
			}
		}
	}
	var sets int64
	for pi, p := range m.parts {
		for k, id := range p.stocks {
			if touched != nil && !touched(pi, k) {
				continue
			}
			what := fmt.Sprintf("part %d stock %d", pi, k)
			check(id, "price", p.price[k], what)
			check(id, "alerts", p.alerts[k], what)
		}
		check(p.index, "value", p.idxVal, fmt.Sprintf("index %d", pi))
		check(p.pf, "hits", p.hits, fmt.Sprintf("portfolio %d", pi))
		sets += p.sets
	}
	if m.audit != oid.Nil {
		check(m.audit, "n", sets, "audit")
	}
	return checked, bad, first
}

// isIndex reports whether id is one of the market's index objects.
func (m *market) isIndex(id oid.OID) bool {
	for _, p := range m.parts {
		if p.index == id {
			return true
		}
	}
	return false
}
