package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// metrics maps a metric's name to its measured value.
type metrics map[string]float64

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// spec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down. The benchmark emits exactly
// the metrics it lists and refuses to run a workload it does not.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// conform checks that m holds exactly the metrics of defs.
func conform(m metrics, defs []metricSpec) error {
	if len(m) != len(defs) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(m), len(defs))
	}
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
	}
	return nil
}

const us = 1e3 // nanoseconds per microsecond

// sliceLen is the length of the equal parts a timed window is cut
// into. Each end-to-end metric is computed per slice and reported as
// the slice at the better quartile: see steady.
const sliceLen = time.Second

// slicesOf is how many slices a window of d has; a short smoke window
// still gets four.
func slicesOf(d time.Duration) int { return max(int(d/sliceLen), 4) }

// steady reduces a metric's per-slice values to the one a run
// reports: the third quartile when higher is better, the first when
// lower is. On a shared machine interference comes in bursts of a few
// seconds and only ever slows the program down, so the better quartile
// sits in the undisturbed part of the window; in sizing it spread a
// quarter to a half less from run to run than the median slice or the
// whole-window mean, and a real regression moves every slice alike.
func steady(perSlice []float64, higherIsBetter bool) float64 {
	sort.Float64s(perSlice)
	if higherIsBetter {
		return percentile(perSlice, 75)
	}
	return percentile(perSlice, 25)
}

// endToEnd computes the user-visible metrics of an untraced window.
func endToEnd(w *window, setups []float64) metrics {
	var rps, p50, p90, cpu []float64
	i := 0
	for k := 0; k+1 < len(w.ticks); k++ {
		lo, hi := w.ticks[k], w.ticks[k+1]
		for i < len(w.samples) && w.samples[i].end <= lo.at {
			i++
		}
		var lat []float64
		for ; i < len(w.samples) && w.samples[i].end <= hi.at; i++ {
			if w.samples[i].ok {
				lat = append(lat, float64(w.samples[i].dur)/us)
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		rps = append(rps, float64(len(lat))/(float64(hi.at-lo.at)/1e9))
		p50 = append(p50, percentile(lat, 50))
		p90 = append(p90, percentile(lat, 90))
		cpu = append(cpu, float64(hi.cpu-lo.cpu)/us/float64(len(lat)))
	}
	return metrics{
		"setup_s":       median(setups),
		"goodput_rps":   steady(rps, true),
		"lat_p50_us":    steady(p50, false),
		"lat_p90_us":    steady(p90, false),
		"cpu_us_per_op": steady(cpu, false),
	}
}

// okLatencies returns the round trips of w's good samples in
// microseconds, ascending, split by wire_bulk's class.
func okLatencies(w *window) (all, short, long []float64) {
	for _, s := range w.samples {
		if !s.ok {
			continue
		}
		d := float64(s.dur) / us
		all = append(all, d)
		if s.long {
			long = append(long, d)
		} else {
			short = append(short, d)
		}
	}
	sort.Float64s(all)
	sort.Float64s(short)
	sort.Float64s(long)
	return
}

func (w *window) failed() int {
	n := 0
	for _, s := range w.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
