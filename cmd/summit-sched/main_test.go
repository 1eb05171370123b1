package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins the default week of Summit scheduling.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("stdout differs from testdata/default.golden\n--- got\n%s--- want\n%s", stdout.String(), want)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestArgumentErrors: a machine of no nodes, no or endless work, no or
// endless submission window, or a machine smaller than a synthesized job
// exits 2 with one line on stderr and nothing on stdout.
func TestArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "0"}, "-nodes must be at least 1, got 0"},
		{[]string{"-nodes", "100"}, "job 0 (INCITE) wants 256 nodes, more than the 100 of -nodes"},
		{[]string{"-hours", "-5"}, "-hours must be positive and finite, got -5"},
		{[]string{"-hours", "0"}, "-hours must be positive and finite, got 0"},
		{[]string{"-hours", "+Inf"}, "-hours must be positive and finite, got +Inf"},
		{[]string{"-horizon", "-1"}, "-horizon must be positive and finite, got -1"},
		{[]string{"-horizon", "NaN"}, "-horizon must be positive and finite, got NaN"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", tc.args, stdout.String())
		}
		if got, want := stderr.String(), "summit-sched: "+tc.want+"\n"; got != want {
			t.Errorf("%v: stderr = %q, want %q", tc.args, got, want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-bogus") {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
