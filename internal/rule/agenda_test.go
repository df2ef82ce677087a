package rule

import (
	"math/rand"
	"sort"
	"testing"

	"sentinel/internal/oid"
)

// TestStrategiesMatchComparators checks each strategy against a stable
// sort by its comparator, over random batches with ties in both priority
// and Seq, so the relative order of tied firings is pinned too. Subscriber
// tags each firing with its position in the batch.
func TestStrategiesMatchComparators(t *testing.T) {
	rules := make([]*Rule, 3)
	for i := range rules {
		rules[i] = New("r", prim("a"), CondTrue, nil, Immediate)
		rules[i].Priority = i - 1
	}
	less := map[string]func(fs []Firing) func(i, j int) bool{
		"priority": func(fs []Firing) func(i, j int) bool {
			return func(i, j int) bool {
				if fs[i].Rule.Priority != fs[j].Rule.Priority {
					return fs[i].Rule.Priority > fs[j].Rule.Priority
				}
				return fs[i].Seq < fs[j].Seq
			}
		},
		"fifo": func(fs []Firing) func(i, j int) bool {
			return func(i, j int) bool { return fs[i].Seq < fs[j].Seq }
		},
		"lifo": func(fs []Firing) func(i, j int) bool {
			return func(i, j int) bool { return fs[i].Seq > fs[j].Seq }
		},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		batch := make([]Firing, rng.Intn(12))
		for i := range batch {
			batch[i] = Firing{
				Rule:       rules[rng.Intn(len(rules))],
				Seq:        uint64(rng.Intn(6)),
				Subscriber: oid.OID(i),
			}
		}
		for _, s := range []Strategy{ByPriority{}, FIFO{}, LIFO{}} {
			got := append([]Firing(nil), batch...)
			want := append([]Firing(nil), batch...)
			s.Order(got)
			sort.SliceStable(want, less[s.Name()](want))
			for i := range got {
				if got[i].Subscriber != want[i].Subscriber {
					t.Fatalf("trial %d, %s: position %d holds firing %d, want %d",
						trial, s.Name(), i, got[i].Subscriber, want[i].Subscriber)
				}
			}
		}
	}
}

// TestOrderAllocs pins that ordering a batch allocates nothing.
func TestOrderAllocs(t *testing.T) {
	r := New("r", prim("a"), CondTrue, nil, Immediate)
	fs := []Firing{{Rule: r, Seq: 3}, {Rule: r, Seq: 1}, {Rule: r, Seq: 2}}
	for _, s := range []Strategy{ByPriority{}, FIFO{}, LIFO{}} {
		if n := testing.AllocsPerRun(100, func() {
			fs[0].Seq, fs[1].Seq, fs[2].Seq = 3, 1, 2
			s.Order(fs)
		}); n != 0 {
			t.Errorf("%s: Order of 3 firings: %v allocs, want 0", s.Name(), n)
		}
	}
}
