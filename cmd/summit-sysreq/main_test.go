package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"summitscale/internal/platform"
)

// TestRunSummitGolden: the Summit report (IO1 and C1, each followed by a
// blank line, then R1) is byte-equal to the golden, with nothing on
// stderr.
func TestRunSummitGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/summit.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-platform", "summit"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("stdout differs from testdata/summit.golden\n--- got\n%s--- want\n%s", stdout.String(), want)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr = %q, want empty", stderr.String())
	}
}

// TestRunEveryPlatformFinite replays the three analyses on every
// registered machine: each run exits 0 and prints no NaN or Inf.
func TestRunEveryPlatformFinite(t *testing.T) {
	for _, name := range platform.Names() {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-platform", name}, &stdout, &stderr); code != 0 {
			t.Fatalf("-platform %s exited %d; stderr:\n%s", name, code, stderr.String())
		}
		for _, bad := range []string{"NaN", "Inf"} {
			if strings.Contains(stdout.String(), bad) {
				t.Errorf("-platform %s prints %s:\n%s", name, bad, stdout.String())
			}
		}
	}
}

// TestRunListsPlatforms: -platforms prints one line per registered
// machine, in registry order.
func TestRunListsPlatforms(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-platforms"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	names := platform.Names()
	if len(lines) != len(names) {
		t.Fatalf("listed %d platforms, want %d:\n%s", len(lines), len(names), stdout.String())
	}
	for i, n := range names {
		if !strings.HasPrefix(lines[i], n+" ") {
			t.Errorf("line %d = %q, want platform %s", i, lines[i], n)
		}
	}
}

// TestArgumentErrors: an unknown platform or flag exits 2 with nothing
// on stdout.
func TestArgumentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-platform", "nosuch"},
		{"-nosuchflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%v wrote nothing to stderr", args)
		}
	}
}
