package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest value with at least p of the sample at or below it.
// Empty input reports 0.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tally counts a run's outcomes. A rejected, failed or wrong query is
// counted once, in the first of those classes it falls in.
type tally struct {
	attempted int
	rejected  int // refused by admission (queue full)
	failed    int // any other error
	wrong     int // completed with a result that differs from the reference
	slow      int // completed correctly but over the latency limit
}

// failFrac is failed + rejected + wrong over attempted.
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.rejected+t.failed+t.wrong) / float64(t.attempted)
}

// sloMissFrac is the share of arrivals that missed the latency limit: a
// rejected, failed or wrong query misses it as surely as a slow one.
func (t tally) sloMissFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.rejected+t.failed+t.wrong+t.slow) / float64(t.attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean returns the mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
