package heap

import (
	"math/rand"
	"testing"

	"sentinel/internal/page"
)

// TestFreeMapAgainstBruteForce drives random set/first sequences against a
// plain slice scanned linearly.
func TestFreeMapAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m freeMap
		var ref []int
		pages := 1 + rng.Intn(300)
		for op := 0; op < 4000; op++ {
			if rng.Intn(3) == 0 {
				// Mostly dense growth with the odd jump, as Alloc produces.
				p := rng.Intn(pages)
				if rng.Intn(50) == 0 {
					pages += rng.Intn(40)
				}
				hint := rng.Intn(page.MaxRecord + 1)
				if rng.Intn(4) == 0 {
					hint = 0
				}
				for len(ref) <= p {
					ref = append(ref, 0)
				}
				ref[p] = hint
				m.set(page.ID(p), hint)
				continue
			}
			from, need := rng.Intn(pages+2), 1+rng.Intn(page.MaxRecord+10)
			want, wantOK := 0, false
			for p := from; p < len(ref); p++ {
				if ref[p] >= need {
					want, wantOK = p, true
					break
				}
			}
			got, ok := m.first(page.ID(from), need)
			if ok != wantOK || (ok && int(got) != want) {
				t.Fatalf("seed %d op %d: first(%d, %d) = %d, %v; want %d, %v", seed, op, from, need, got, ok, want, wantOK)
			}
		}
	}
}
