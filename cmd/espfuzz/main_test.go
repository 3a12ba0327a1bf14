package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// soakBudget is the wall-time cap of the soak smoke tests. Each runs a fixed
// trial count and requires all of them, so a slow host (or -race) costs time
// and not a verdict; the budget only stops a harness that hangs.
const soakBudget = "120s"

func TestSoakSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-budget", soakBudget, "-trials", "50", "-seed", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, out.String())
	}
	if s.Trials != 50 {
		t.Fatalf("%d trials ran, want 50: the budget ran out first", s.Trials)
	}
	if s.Failures != 0 {
		t.Fatalf("%d failures on clean seeds: %s", s.Failures, errOut.String())
	}
	if s.LastSeed < s.FirstSeed {
		t.Fatalf("bad seed accounting: %+v", s)
	}
}

func TestTrialCap(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-budget", "30s", "-trials", "7"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Trials != 7 {
		t.Fatalf("trials = %d, want 7", s.Trials)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{{"-nope"}, {"-mode", "nope"}, {"-crash"}} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestCrashSoakSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-budget", soakBudget, "-trials", "10", "-seed", "1", "-mode", "crash"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, out.String())
	}
	if s.Trials != 10 {
		t.Fatalf("%d crash trials ran, want 10: the budget ran out first", s.Trials)
	}
	if s.Failures != 0 {
		t.Fatalf("%d failures on clean seeds: %s", s.Failures, errOut.String())
	}
}

func TestAdaptiveSoakSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-budget", soakBudget, "-trials", "10", "-seed", "1", "-mode", "adaptive"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, out.String())
	}
	if s.Trials != 10 {
		t.Fatalf("%d adaptive trials ran, want 10: the budget ran out first", s.Trials)
	}
	if s.Failures != 0 {
		t.Fatalf("%d failures on clean seeds: %s", s.Failures, errOut.String())
	}
}
