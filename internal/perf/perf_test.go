package perf

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Stddev = %v", s.Stddev)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty Summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Stddev != 0 || s.CI95 != 0 {
		t.Fatalf("single Summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("GeoMean = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	if !math.IsNaN(GeoMean([]float64{1, 0})) {
		t.Fatal("GeoMean with zero should be NaN")
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("Speedup")
	}
	if Efficiency(10, 2, 5) != 1 {
		t.Fatal("Efficiency")
	}
	if Speedup(10, 0) != 0 || Efficiency(1, 1, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestKarpFlatt(t *testing.T) {
	// Perfect speedup => serial fraction 0.
	if e := KarpFlatt(4, 4); math.Abs(e) > 1e-12 {
		t.Fatalf("KarpFlatt(4,4) = %v", e)
	}
	// No speedup at all => serial fraction 1.
	if e := KarpFlatt(1, 8); math.Abs(e-1) > 1e-12 {
		t.Fatalf("KarpFlatt(1,8) = %v", e)
	}
	if !math.IsNaN(KarpFlatt(2, 1)) || !math.IsNaN(KarpFlatt(0, 4)) {
		t.Fatal("invalid KarpFlatt inputs must be NaN")
	}
	// In between it inverts Amdahl's law: the speedup a serial fraction
	// f predicts on p processors gives f back.
	for _, f := range []float64{0.1, 0.5, 0.9} {
		for _, p := range []int{2, 8, 64} {
			s := 1 / (f + (1-f)/float64(p))
			if e := KarpFlatt(s, p); math.Abs(e-f) > 1e-12 {
				t.Fatalf("f=%v p=%d: KarpFlatt recovered %v", f, p, e)
			}
		}
	}
}

func TestGustafson(t *testing.T) {
	// f=0 is linear scaled speedup; f=1 is none.
	if Gustafson(0, 16) != 16 {
		t.Fatal("Gustafson(0,16)")
	}
	if Gustafson(1, 16) != 1 {
		t.Fatal("Gustafson(1,16)")
	}
}

func TestThroughputFormat(t *testing.T) {
	if Throughput(100, 2) != 50 {
		t.Fatal("Throughput")
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("Throughput zero time")
	}
	for _, tc := range []struct {
		sec  float64
		want string
	}{
		{1.5, "1.5s"},
		{0.0015, "1.5ms"},
		{0.0000015, "1.5µs"},
		{0.0000000015, "1.5ns"},
		{1.5e-10, "0.15ns"}, // sub-ns keeps the ns unit, no underflow
		{0, "0ns"},
		{-0.0015, "-1.5ms"}, // sign preserved, unit from the magnitude
		{-2, "-2s"},
	} {
		if got := FormatDuration(tc.sec); got != tc.want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", tc.sec, got, tc.want)
		}
	}
}

// TestPercentileNearestRank pins the nearest-rank contract that the
// latency tables and loadgen reports lean on: exact boundary behavior
// at q=0/100, the textbook ranks in between, and no mutation or
// sorting of the caller's sample.
func TestPercentileNearestRank(t *testing.T) {
	if p := Percentile(nil, 99); p != 0 {
		t.Fatalf("empty Percentile = %v", p)
	}
	if p := Percentile([]float64{7}, 50); p != 7 {
		t.Fatalf("single Percentile = %v", p)
	}
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 10},   // q<=0 is the minimum
		{-5, 10},  // negative clamps to the minimum too
		{25, 10},  // ceil(.25*4)=1 -> first
		{50, 20},  // ceil(.50*4)=2 -> second
		{75, 30},  // ceil(.75*4)=3 -> third
		{99, 40},  // ceil(.99*4)=4 -> last
		{100, 40}, // q=100 is the maximum
		{150, 40}, // overshoot clamps to the maximum
	} {
		if got := Percentile(xs, tc.q); got != tc.want {
			t.Fatalf("Percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 40 || xs[1] != 10 || xs[2] != 30 || xs[3] != 20 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

// TestSummarizeSingleCI pins that a one-sample summary reports zero
// spread rather than NaN — the divide-by-(n-1) edge.
func TestSummarizeSingleCI(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Stddev != 0 || s.CI95 != 0 {
		t.Fatalf("single-sample Summary = %+v", s)
	}
	if math.IsNaN(s.Stddev) || math.IsNaN(s.CI95) {
		t.Fatal("single-sample spread must be 0, not NaN")
	}
}

func TestRunnerRepsAndWarmup(t *testing.T) {
	r := Runner{Warmup: 2, Reps: 5}
	var calls, warmups int
	s := r.Time(func(rep int) {
		calls++
		if rep < 0 {
			warmups++
		}
	})
	if calls != 7 || warmups != 2 || s.N != 5 {
		t.Fatalf("calls=%d warmups=%d N=%d", calls, warmups, s.N)
	}
}

func TestRunnerDefaults(t *testing.T) {
	var r Runner
	calls := 0
	s := r.Time(func(rep int) { calls++ })
	if calls != 4 || s.N != 3 {
		t.Fatalf("default runner: calls=%d N=%d", calls, s.N)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Tab X", "name", "value")
	tb.AddRowf("scan", 3.14159)
	tb.AddRowf("sort", 42)
	out := tb.String()
	if !strings.Contains(out, "Tab X") || !strings.Contains(out, "3.142") || !strings.Contains(out, "42") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"z`)
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatal("row lost")
	}
}
