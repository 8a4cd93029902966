package main

import (
	"sort"

	"khazana"
)

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(p*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the repeat command's spreads match that reference.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// layerCounters is one aggregate reading of the program's own telemetry:
// counters and gauges summed over the given nodes by name, histograms as
// name+".count" and name+".sum".
type layerCounters map[string]float64

func readCounters(nodes []*khazana.Node) layerCounters {
	out := layerCounters{}
	for _, n := range nodes {
		snap := n.Core().MetricsSnapshot()
		for _, c := range snap.Counters {
			out[c.Name] += float64(c.Value)
		}
		for _, g := range snap.Gauges {
			out[g.Name] += float64(g.Value)
		}
		for _, h := range snap.Histograms {
			out[h.Name+".count"] += float64(h.Count)
			out[h.Name+".sum"] += float64(h.Sum)
		}
	}
	return out
}

// mean returns a histogram's mean observation (0 when it has none); on
// accumulated deltas, the mean of the observations made in between.
func (c layerCounters) mean(name string) float64 {
	n := c[name+".count"]
	if n == 0 {
		return 0
	}
	return c[name+".sum"] / n
}
