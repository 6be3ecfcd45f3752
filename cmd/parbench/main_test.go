package main

import (
	"strings"
	"testing"
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
	}
	// "spawn" named the retired goroutine-per-call executor.
	if e, err := executorFor("spawn"); err == nil || e != nil {
		t.Errorf("executorFor(spawn) = %v, %v; want a usage error", e, err)
	}
}

// onOffFlags are the flags parsed by onOff.
var onOffFlags = []string{"scratch"}

func TestFlagModesAcceptKnownValues(t *testing.T) {
	for _, flagName := range onOffFlags {
		for _, def := range []bool{false, true} {
			if on, err := onOff(flagName, "on", def); err != nil || !on {
				t.Errorf("onOff(%s, on, %v) = %v, %v", flagName, def, on, err)
			}
			if on, err := onOff(flagName, "off", def); err != nil || on {
				t.Errorf("onOff(%s, off, %v) = %v, %v", flagName, def, on, err)
			}
			// The empty mode is the flag's default.
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
