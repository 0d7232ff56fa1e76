package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the closest ranks. It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sypd converts simulated seconds advanced in wall seconds into simulated
// years per wall-clock day, the AGCM throughput unit.
func sypd(simSeconds, wallSeconds float64) float64 {
	const year = 365 * 86400.0
	return (simSeconds / year) / (wallSeconds / 86400)
}
