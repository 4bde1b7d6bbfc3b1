package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks; xs need not be sorted and is
// left untouched. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs into quarters by the
// method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so a spread computed here matches one computed there.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	if len(xs) < 2 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// windowCounter counts events in consecutive one-second windows from
// start. The median window is a throughput that a brief stall of the
// machine (a descheduled virtual CPU, a neighbour's burst) does not drag
// down the way a whole-run average is dragged.
type windowCounter struct {
	start  time.Time
	counts []atomic.Int64
}

// newWindowCounter covers the first n whole seconds after start (at
// least one); later events are not counted.
func newWindowCounter(start time.Time, n int) *windowCounter {
	return &windowCounter{start: start, counts: make([]atomic.Int64, max(n, 1))}
}

func (w *windowCounter) add(t time.Time) {
	d := t.Sub(w.start)
	if i := int(d / time.Second); d >= 0 && i < len(w.counts) {
		w.counts[i].Add(1)
	}
}

// medianRate is the median window's count, in events per second.
func (w *windowCounter) medianRate() float64 {
	xs := make([]float64, len(w.counts))
	for i := range w.counts {
		xs[i] = float64(w.counts[i].Load())
	}
	return median(xs)
}
