// Package perf is the experiment harness: Runner.Time times a function
// with warmup and repetition, the stats helpers compute the summary
// statistics the methodology prescribes (median and mean with
// dispersion, percentiles, speedup/efficiency/Karp–Flatt/Gustafson
// metrics; GeoMean for ratio aggregation, which no table uses yet), and
// Table renders results as aligned text and CSV.
//
// Layering: perf is a leaf measurement package; it feeds core's
// experiment tables, cmd/parbench (rendering, CSV) and
// cmd/parstudy.
package perf
