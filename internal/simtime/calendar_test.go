package simtime

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCalendarBasicSequence(t *testing.T) {
	c := NewCalendar()
	s1, e1 := c.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first: [%v,%v]", s1, e1)
	}
	// Overlapping request queues after.
	s2, e2 := c.Reserve(50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second: [%v,%v]", s2, e2)
	}
	if c.BusyUntil() != 200 {
		t.Fatalf("busyUntil: %v", c.BusyUntil())
	}
}

func TestCalendarBackfillsGaps(t *testing.T) {
	c := NewCalendar()
	// A late-ready reservation books far in the future...
	c.Reserve(1000, 100)
	// ...and an early-ready one called LATER still gets the early slot.
	s, e := c.Reserve(0, 100)
	if s != 0 || e != 100 {
		t.Fatalf("early flow should backfill: [%v,%v]", s, e)
	}
	// A mid gap (100..1000) fits a 900 reservation exactly.
	s, e = c.Reserve(0, 900)
	if s != 100 || e != 1000 {
		t.Fatalf("gap fill: [%v,%v]", s, e)
	}
	// Now the calendar is solid 0..1100; next goes after.
	s, _ = c.Reserve(0, 10)
	if s != 1100 {
		t.Fatalf("after solid block: %v", s)
	}
}

func TestCalendarGapTooSmall(t *testing.T) {
	c := NewCalendar()
	c.Reserve(0, 100)   // [0,100)
	c.Reserve(150, 100) // [150,250)
	// A 60-unit request ready at 0 does not fit the 50-unit gap.
	s, e := c.Reserve(0, 60)
	if s != 250 || e != 310 {
		t.Fatalf("should skip small gap: [%v,%v]", s, e)
	}
	// A 50-unit request fits exactly.
	s, e = c.Reserve(0, 50)
	if s != 100 || e != 150 {
		t.Fatalf("exact gap fit: [%v,%v]", s, e)
	}
}

func TestCalendarZeroDuration(t *testing.T) {
	c := NewCalendar()
	c.Reserve(0, 100)
	s, e := c.Reserve(10, 0)
	if s != 100 || e != 100 {
		t.Fatalf("zero-length inside busy should start at gap: [%v,%v]", s, e)
	}
	if c.BusyUntil() != 100 {
		t.Fatal("zero-length must not occupy the calendar")
	}
	s, e = c.Reserve(5, -7)
	if s != e {
		t.Fatal("negative duration should clamp to zero")
	}
}

func TestCalendarReset(t *testing.T) {
	c := NewCalendar()
	c.Reserve(0, 500)
	c.Reset()
	if s, _ := c.Reserve(0, 10); s != 0 {
		t.Fatalf("after reset: %v", s)
	}
}

// Property: no two reservations overlap, each starts at or after its
// ready time, and the total booked time equals the sum of durations.
func TestCalendarNoOverlapProperty(t *testing.T) {
	type iv struct{ s, e Time }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCalendar()
		var got []iv
		var total Duration
		for i := 0; i < 100; i++ {
			ready := Time(rng.Intn(2000))
			d := Duration(1 + rng.Intn(50))
			s, e := c.Reserve(ready, d)
			if s < ready || e != s.Add(d) {
				return false
			}
			got = append(got, iv{s, e})
			total += d
		}
		sort.Slice(got, func(i, j int) bool { return got[i].s < got[j].s })
		for i := 1; i < len(got); i++ {
			if got[i].s < got[i-1].e {
				return false // overlap
			}
		}
		return true && total > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarConcurrentSafety: many goroutines reserving at once (the
// fabric's calendars under rank goroutines; CI runs this package under the
// race detector) never book overlapping intervals, each booking starts at
// or after its ready time, and the calendar's busy list is exactly the
// union of what was booked.
func TestCalendarConcurrentSafety(t *testing.T) {
	c := NewCalendar()
	var wg sync.WaitGroup
	const workers, each = 32, 200
	results := make([][][2]Time, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < each; k++ {
				ready, d := Time(rng.Intn(50000)), Duration(rng.Intn(40))
				s, e := c.Reserve(ready, d)
				if s < ready || e != s.Add(d) {
					t.Errorf("Reserve(%v, %v) = [%v, %v)", ready, d, s, e)
				}
				if d > 0 {
					results[i] = append(results[i], [2]Time{s, e})
				}
			}
		}(i)
	}
	wg.Wait()
	var all [][2]Time
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	var union []interval
	for i, iv := range all {
		if i > 0 && iv[0] < all[i-1][1] {
			t.Fatalf("concurrent reservations overlap: %v and %v", all[i-1], iv)
		}
		if n := len(union); n > 0 && union[n-1].end == iv[0] {
			union[n-1].end = iv[1]
		} else {
			union = append(union, interval{iv[0], iv[1]})
		}
	}
	if !reflect.DeepEqual(c.busy, union) {
		t.Fatalf("busy list holds %d intervals, the bookings' union %d", len(c.busy), len(union))
	}
}

// linearReserve is the front-to-back scan Reserve used before it bisected,
// kept as the oracle: the same booking rule over a plain interval list.
func linearReserve(busy []interval, ready Time, d Duration) ([]interval, Time, Time) {
	if d < 0 {
		d = 0
	}
	start := ready
	pos := len(busy)
	for i, iv := range busy {
		if iv.end <= start {
			continue
		}
		if start.Add(d) <= iv.start {
			pos = i
			break
		}
		start = iv.end
	}
	end := start.Add(d)
	if d == 0 {
		return busy, start, end
	}
	busy = append(busy[:pos], append([]interval{{start, end}}, busy[pos:]...)...)
	if pos > 0 && busy[pos-1].end >= busy[pos].start {
		busy[pos-1].end = maxT(busy[pos-1].end, busy[pos].end)
		busy = append(busy[:pos], busy[pos+1:]...)
		pos--
	}
	for pos+1 < len(busy) && busy[pos].end >= busy[pos+1].start {
		busy[pos].end = maxT(busy[pos].end, busy[pos+1].end)
		busy = append(busy[:pos+1], busy[pos+2:]...)
	}
	return busy, start, end
}

// TestReserveMatchesLinearScan: the bisecting Reserve books exactly what
// the linear scan books and leaves the same busy list, over random (ready,
// d) sequences that include zero and negative lengths and bookings that
// touch and merge — and, on a fixed calendar, for ready before, at the
// start of, inside, at the end of and after every interval and gap.
func TestReserveMatchesLinearScan(t *testing.T) {
	check := func(c *Calendar, ref []interval, ready Time, d Duration) []interval {
		t.Helper()
		ref, ws, we := linearReserve(ref, ready, d)
		if s, e := c.Reserve(ready, d); s != ws || e != we {
			t.Fatalf("Reserve(%v, %v) = [%v, %v), linear scan [%v, %v)", ready, d, s, e, ws, we)
		}
		if !reflect.DeepEqual(c.busy, ref) && (len(c.busy) > 0 || len(ref) > 0) {
			t.Fatalf("after Reserve(%v, %v): busy %v, linear scan %v", ready, d, c.busy, ref)
		}
		return ref
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := NewCalendar(), []interval(nil)
		for i := 0; i < 300; i++ {
			ready := Time(rng.Intn(3000))
			var d Duration
			switch rng.Intn(6) {
			case 0: // zero or negative: occupies nothing
				d = Duration(-rng.Intn(2))
			case 1: // long enough to span several intervals
				d = Duration(rng.Intn(400))
			default: // short: fills gaps, touches neighbours
				d = Duration(1 + rng.Intn(20))
			}
			ref = check(c, ref, ready, d)
		}
	}
	// Every position relative to a fixed pattern of intervals and gaps.
	build := func() (*Calendar, []interval) {
		c, ref := NewCalendar(), []interval(nil)
		for _, iv := range [][2]Time{{10, 20}, {30, 35}, {50, 80}, {81, 90}} {
			ref = check(c, ref, iv[0], iv[1].Sub(iv[0]))
		}
		return c, ref
	}
	for ready := Time(0); ready <= 100; ready++ {
		for _, d := range []Duration{0, 1, 5, 10, 15, 40} {
			c, ref := build()
			check(c, ref, ready, d)
		}
	}
}

func TestCalendarMergeAdjacent(t *testing.T) {
	c := NewCalendar()
	c.Reserve(0, 10)
	c.Reserve(10, 10) // touches predecessor
	c.Reserve(20, 10) // touches again
	// Internally merged: a request ready at 0 goes after 30.
	if s, _ := c.Reserve(0, 1); s != 30 {
		t.Fatalf("merge failed: %v", s)
	}
}
