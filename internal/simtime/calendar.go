package simtime

import (
	"slices"
	"sort"
	"sync"
)

// Calendar models a serially-shared resource (a network adapter) whose
// reservations are placed by simulated *ready time*, not by call order:
// Reserve books the earliest idle interval of the requested length at or
// after ready. This matters because rank goroutines reach the fabric in
// arbitrary wall-clock order — a transfer that is ready earlier in
// simulated time must not queue behind one that merely called first.
//
// Calendar is safe for concurrent use.
type Calendar struct {
	mu sync.Mutex
	// busy is the sorted, non-overlapping list of booked intervals.
	busy []interval
}

type interval struct{ start, end Time }

// NewCalendar returns an empty calendar.
func NewCalendar() *Calendar { return &Calendar{} }

// Reserve books d units of resource time at the earliest instant not
// before ready, returning the booked [start, end) interval.
func (c *Calendar) Reserve(ready Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start = ready
	// The intervals are sorted and disjoint, so their ends increase: bisect
	// to the first one ending after ready. From there each interval is the
	// first ending after the candidate start, which either fits before it
	// or moves past its end.
	pos := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end > ready })
	for ; pos < len(c.busy); pos++ {
		if start.Add(d) <= c.busy[pos].start {
			break
		}
		start = c.busy[pos].end
	}
	end = start.Add(d)
	if d == 0 {
		// Zero-length reservations occupy nothing.
		return start, end
	}
	// Insert at pos keeping order, then merge neighbors that touch.
	c.busy = slices.Insert(c.busy, pos, interval{start, end})
	c.merge(pos)
	return start, end
}

func (c *Calendar) merge(pos int) {
	// Merge with predecessor.
	if pos > 0 && c.busy[pos-1].end >= c.busy[pos].start {
		c.busy[pos-1].end = maxT(c.busy[pos-1].end, c.busy[pos].end)
		c.busy = append(c.busy[:pos], c.busy[pos+1:]...)
		pos--
	}
	// Merge with successor(s).
	for pos+1 < len(c.busy) && c.busy[pos].end >= c.busy[pos+1].start {
		c.busy[pos].end = maxT(c.busy[pos].end, c.busy[pos+1].end)
		c.busy = append(c.busy[:pos+1], c.busy[pos+2:]...)
	}
}

func maxT(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// BusyUntil reports the end of the last booked interval.
func (c *Calendar) BusyUntil() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.busy) == 0 {
		return 0
	}
	return c.busy[len(c.busy)-1].end
}

// Reset clears all reservations.
func (c *Calendar) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = nil
}
