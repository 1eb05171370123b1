package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins the default Summit study, whose last line prices a
// ring step on "25 GB/s links" (not "25.00"), and a traced route.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{nil, "testdata/summit.golden"},
		{[]string{"-radix", "8", "-route", "0,100"}, "testdata/route.golden"},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d; stderr:\n%s", tc.args, code, stderr.String())
		}
		if stdout.String() != string(want) {
			t.Errorf("%v: stdout differs from %s\n--- got\n%s--- want\n%s", tc.args, tc.golden, stdout.String(), want)
		}
		if stderr.Len() != 0 {
			t.Errorf("%v: stderr = %q, want empty", tc.args, stderr.String())
		}
	}
}

// TestArgumentErrors: a radix the fat tree cannot have, a host outside
// it, a malformed route or an unknown platform exits 2 with one line on
// stderr and nothing on stdout.
func TestArgumentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-radix", "7"},
		{"-radix", "0"},
		{"-route", "0,5000"},
		{"-route", "-1,3"},
		{"-route", "0"},
		{"-route", "a,b"},
		{"-platform", "nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "summit-topo: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one summit-topo line", args, msg)
		}
	}
}
