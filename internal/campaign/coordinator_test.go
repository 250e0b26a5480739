package campaign

import (
	"sort"
	"sync"
	"testing"
)

// drain pulls every lease, completing each, and returns the issued
// positions in issue order.
func drain(t *testing.T, c *Coordinator) []int {
	t.Helper()
	var got []int
	for {
		l, ok := c.Next()
		if !ok {
			return got
		}
		got = append(got, l.Pos...)
		c.Complete(l.ID)
	}
}

func TestCoordinatorPartitionsEverything(t *testing.T) {
	c := NewCoordinator(10, nil, 3, 0, 0)
	got := drain(t, c)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("issued %v, want %v", got, want)
		}
	}
}

func TestCoordinatorSkipsDoneAndHonoursLimit(t *testing.T) {
	done := map[int]bool{1: true, 2: true, 7: true}
	c := NewCoordinator(10, done, 4, 3, 0)
	got := drain(t, c)
	// Pending order: 0,3,4,5,6,8,9 — the limit keeps the first three.
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("issued %v, want %v", got, want)
		}
	}
}

// TestCoordinatorNeverWaits: Next returns false once every pending
// position is issued, with leases still out, and after Close — the engine
// never blocks on a lease another worker holds.
func TestCoordinatorNeverWaits(t *testing.T) {
	c := NewCoordinator(4, nil, 2, 0, 0)
	a, _ := c.Next()
	if _, ok := c.Next(); !ok {
		t.Fatal("no second lease")
	}
	if l, ok := c.Next(); ok {
		t.Fatalf("issued %v past the end of the position space", l.Pos)
	}
	c.Complete(a.ID)

	c = NewCoordinator(4, nil, 2, 0, 0)
	c.Next()
	c.Close()
	if l, ok := c.Next(); ok {
		t.Fatalf("closed coordinator issued %v", l.Pos)
	}
}

func TestCoordinatorConcurrentWorkers(t *testing.T) {
	const total, workers = 500, 8
	c := NewCoordinator(total, nil, 7, 0, 0)
	var (
		mu   sync.Mutex
		seen []int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l, ok := c.Next()
				if !ok {
					return
				}
				mu.Lock()
				seen = append(seen, l.Pos...)
				mu.Unlock()
				c.Complete(l.ID)
			}
		}()
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("executed %d positions, want %d", len(seen), total)
	}
	sort.Ints(seen)
	for i, p := range seen {
		if p != i {
			t.Fatalf("position %d missing or duplicated (saw %d)", i, p)
		}
	}
}
