package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFlagModesRejectUnknownValues pins the CLI contract: a mistyped
// mode value (e.g. -scratch=maybe) must produce a usage error, not a
// silent fall-back to the default behavior.
func TestFlagModesRejectUnknownValues(t *testing.T) {
	for _, bad := range []string{"maybe", "ON", "1", "true", " on"} {
		for _, flagName := range onOffFlags {
			for _, def := range []bool{false, true} {
				if _, err := onOff(flagName, bad, def); err == nil || !strings.Contains(err.Error(), "-"+flagName) {
					t.Errorf("onOff(%s, %q, %v) err = %v, want one naming -%s", flagName, bad, def, err, flagName)
				}
			}
		}
		if _, err := executorFor(bad); err == nil {
			t.Errorf("executorFor(%q) accepted", bad)
		}
		if _, err := arrivalFor(bad); err == nil {
			t.Errorf("arrivalFor(%q) accepted", bad)
		}
	}
	// "spawn" named the retired goroutine-per-call executor.
	if e, err := executorFor("spawn"); err == nil || e != nil {
		t.Errorf("executorFor(spawn) = %v, %v; want a usage error", e, err)
	}
}

// onOffFlags are the flags parsed by onOff.
var onOffFlags = []string{"scratch", "adapt", "cache", "delta"}

func TestFlagModesAcceptKnownValues(t *testing.T) {
	for _, flagName := range onOffFlags {
		for _, def := range []bool{false, true} {
			if on, err := onOff(flagName, "on", def); err != nil || !on {
				t.Errorf("onOff(%s, on, %v) = %v, %v", flagName, def, on, err)
			}
			if on, err := onOff(flagName, "off", def); err != nil || on {
				t.Errorf("onOff(%s, off, %v) = %v, %v", flagName, def, on, err)
			}
			// The empty mode is the flag's default: scratch defaults on,
			// adapt, cache and delta off.
			if on, err := onOff(flagName, "", def); err != nil || on != def {
				t.Errorf("onOff(%s, \"\", %v) = %v, %v", flagName, def, on, err)
			}
		}
	}
	if e, err := executorFor("pooled"); err != nil || e != nil {
		t.Errorf("executorFor(pooled) = %v, %v", e, err)
	}
	// "dedicated" constructs a pool; just check it resolves.
	if e, err := executorFor("dedicated"); err != nil || e == nil {
		t.Errorf("executorFor(dedicated) = %v, %v", e, err)
	} else {
		e.Close()
	}
	// Arrival defaults to poisson; const is the other accepted process.
	if p, err := arrivalFor(""); err != nil || !p {
		t.Errorf("arrivalFor(\"\") = %v, %v", p, err)
	}
	if p, err := arrivalFor("poisson"); err != nil || !p {
		t.Errorf("arrivalFor(poisson) = %v, %v", p, err)
	}
	if p, err := arrivalFor("const"); err != nil || p {
		t.Errorf("arrivalFor(const) = %v, %v", p, err)
	}
}

// TestServeDemo smoke-runs the -serve mode at quick size and checks
// the admission stats, latency percentiles and per-tenant fair-share
// lines appear with every request accounted for.
func TestServeDemo(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 1}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "completed=2000") {
		t.Errorf("stats line missing completed count:\n%s", out)
	}
	for _, want := range []string{"serve: accepted=", "reqs/batch=", "pipelined=",
		"latency: p50=", "p95=", "p99=", "req/s", "tenant hot", "tenant t1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeDemoSharded smoke-runs the -serve -shards mode and checks
// the per-shard stats lines appear alongside the aggregate, with every
// request accounted for across shards.
func TestServeDemoSharded(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 2}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "completed=2000") {
		t.Errorf("aggregate line missing completed count:\n%s", out)
	}
	for _, want := range []string{"2 shards", "shards: migrations=",
		"shard 0: accepted=", "shard 1: accepted=", "occupancy=",
		"latency: p50=", "tenant hot"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestOpenLoopDemo smoke-runs the -serve -openloop mode at quick size
// and checks both latency rows (corrected and uncorrected) and the
// offered/achieved rate accounting appear.
func TestOpenLoopDemo(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 1, openLoop: true, rate: 4000, poisson: true}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"open-loop serving demo", "(poisson)",
		"sent=2000", "offered=", "achieved=",
		"latency (uncorrected", "latency (corrected", "honest tail",
		"serve: accepted=", "dlrej=", "tenant hot"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestOpenLoopDemoConstSharded covers the const-arrival schedule and
// the sharded server in one smoke: the per-shard lines must coexist
// with the corrected/uncorrected rows.
func TestOpenLoopDemoConstSharded(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{openLoop: true, rate: 4000, shards: 2}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"2 shards", "(const)", "shard 0: accepted=",
		"latency (corrected"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeDemoWithSLO smoke-runs the closed-loop demo with a deadline
// budget: the run must still drain (retries absorb refusals) and the
// deadline counters must be reported.
func TestServeDemoWithSLO(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 1, slo: 50 * time.Millisecond}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"dlrej=", "expired=", "deadline-refused=", "retried="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeDemoWithCache smoke-runs the closed-loop demo with the
// result cache fronting the server: repeated payloads must actually
// hit, and the cache stats line must be printed.
func TestServeDemoWithCache(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 1, cacheOn: true}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"cache: hits=", "hitrate=", "invalidations=", "cachehits="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cache: hits=0 ") {
		t.Errorf("demo's repeated payloads never hit the cache:\n%s", out)
	}
	if strings.Contains(out, "invalidations=0\n") {
		t.Errorf("mid-run generation bump never invalidated anything:\n%s", out)
	}
}

// TestServeDemoWithCacheAndDelta smoke-runs the full -cache -delta
// mix, sharded, and checks the standing-query traffic is counted.
func TestServeDemoWithCacheAndDelta(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 2, cacheOn: true, deltaOn: true}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"cache: hits=", "delta-updates=", "2 shards"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "delta-updates=0") {
		t.Errorf("delta traffic never ran:\n%s", out)
	}
}

// TestOpenLoopDemoWithCache covers the open-loop driver with the
// cache on (delta stays closed-loop-only by flag validation).
func TestOpenLoopDemoWithCache(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 1, openLoop: true, rate: 4000, poisson: true, cacheOn: true}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"cache: hits=", "latency (corrected"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeDemoWire smoke-runs the closed-loop demo over the loopback
// wire listener: the same traffic crosses a real TCP socket, so the
// listener's frame counters appear next to the admission stats and
// every request still drains.
func TestServeDemoWire(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{shards: 1, wireAddr: "loopback"}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"wire: loopback", "conns=", "responses=",
		"serve: accepted=", "completed=2000", "tenant hot"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestOpenLoopDemoWireSharded covers the open-loop driver over the
// loopback listener in front of a sharded server — the full remote
// stack: socket, listener, shard routing, corrected percentiles.
func TestOpenLoopDemoWireSharded(t *testing.T) {
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true}, serveDemo{openLoop: true, rate: 4000, shards: 2, wireAddr: "loopback"}, &buf); err != nil {
		t.Fatalf("runServeDemo: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"wire: loopback", "2 shards", "latency (corrected"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestShardProcsNeedsAWorkerPerShard pins the -shards/-procs contract:
// workers split evenly over shards, and fewer workers than shards is an
// error rather than one worker per shard floored in behind the flags.
func TestShardProcsNeedsAWorkerPerShard(t *testing.T) {
	for _, c := range []struct {
		shards int
		procs  []int
		want   int
	}{
		{1, nil, 4}, {2, nil, 2}, {4, nil, 1}, {3, []int{1, 7}, 2},
	} {
		if got, err := shardProcs(c.shards, c.procs); err != nil || got != c.want {
			t.Errorf("shardProcs(%d, %v) = %d, %v; want %d", c.shards, c.procs, got, err, c.want)
		}
	}
	for _, c := range []struct {
		shards int
		procs  []int
	}{
		{0, nil}, {-1, nil}, {5, nil}, {2, []int{8, 1}},
	} {
		if _, err := shardProcs(c.shards, c.procs); err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("shardProcs(%d, %v) err = %v, want one naming -shards", c.shards, c.procs, err)
		}
	}
	var buf strings.Builder
	if err := runServeDemo(core.Config{Quick: true, Procs: []int{2}}, serveDemo{shards: 4}, &buf); err == nil {
		t.Fatal("-serve with 4 shards over 2 workers ran")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 8 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if out, err := parseInts(""); err != nil || out != nil {
		t.Fatalf("empty: %v, %v", out, err)
	}
	if _, err := parseInts("x"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := parseInts("0"); err == nil {
		t.Fatal("zero accepted")
	}
}

func TestSelectIDs(t *testing.T) {
	all := selectIDs("all")
	if len(all) != 28 { // E1..E29 with E22 retired
		t.Fatalf("all = %v", all)
	}
	some := selectIDs(" E1 ,E5,")
	if len(some) != 2 || some[0] != "E1" || some[1] != "E5" {
		t.Fatalf("some = %v", some)
	}
	if len(selectIDs(",")) != 0 {
		t.Fatal("empty selection")
	}
}
