package main

import (
	"math/rand"
	"syscall"
	"time"
)

// arrival is one open-loop request: when it is due, relative to the start
// of its rung, and which page it sends.
type arrival struct {
	due  time.Duration
	page int
}

// poissonSchedule returns the arrivals of one open-loop rung: independent
// users, so exponential gaps at the given mean rate, over dur, each
// choosing a page uniformly from pages. The same seed gives the same
// schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration, pages int) []arrival {
	r := rand.New(rand.NewSource(seed))
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{due: at, page: r.Intn(pages)})
	}
}

// sleepUntil blocks until t. It sleeps in the kernel (nanosleep) rather
// than on a runtime timer: runtime timers on an idle process fire up to a
// millisecond late, which would add generator lateness to every
// sub-millisecond gap of a 1k–4k req/s schedule.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// rungResult is one open-loop ladder rung as measured.
type rungResult struct {
	rate     float64
	sent     int
	failed   int
	latency  []time.Duration // completion − due, in arrival order
	lateness []time.Duration // send − due, in arrival order
}

// backlogGrowing reports whether the generator fell further behind over
// the rung: the median lateness of its last tenth of requests exceeds
// that of its first tenth by more than limit. A daemon that keeps up
// leaves lateness flat however busy it is.
func backlogGrowing(lateness []time.Duration, limit time.Duration) bool {
	n := len(lateness) / 10
	if n == 0 {
		return false
	}
	first := median(millis(lateness[:n]))
	last := median(millis(lateness[len(lateness)-n:]))
	return last-first > float64(limit)/float64(time.Millisecond)
}

// passes reports whether the rung met the latency limit: no failed
// request (a failure misses any limit), p99 from due time under limit,
// and no growing backlog.
func (r *rungResult) passes(limit time.Duration) bool {
	if r.failed > 0 || len(r.latency) == 0 {
		return false
	}
	p99 := percentile(millis(r.latency), 99)
	return p99 < float64(limit)/float64(time.Millisecond) && !backlogGrowing(r.lateness, limit)
}

// maxPassingRate is the highest rate of the ladder whose rung passes,
// 0 when none does.
func maxPassingRate(rungs []*rungResult, limit time.Duration) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.passes(limit) && r.rate > best {
			best = r.rate
		}
	}
	return best
}
