package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E3", "-scale", "smoke"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E3: Throughput vs. slack bound K") {
		t.Errorf("output: %s", out.String())
	}
	if header, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(header, "go1.") || !strings.Contains(header, "3 reps") {
		t.Errorf("header names no Go version or rep count: %q", header)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "bogus"}, &out); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Error("bad experiment accepted")
	}
	for _, removed := range []string{"-csv", "-json", "-list", "-listen=:0", "-queries=1"} {
		if err := run([]string{removed}, &out); err == nil {
			t.Errorf("removed flag %s accepted", removed)
		}
	}
}
