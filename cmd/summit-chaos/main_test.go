package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOK runs the command in process and fails the test unless it exits
// with code; it returns stdout.
func runOK(t *testing.T, code int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if got := run(args, &stdout, &stderr); got != code {
		t.Fatalf("run %v exited %d, want %d; stderr:\n%s", args, got, code, stderr.String())
	}
	return stdout.String()
}

// TestSDCStormAnyJobs: the silent-data-corruption ablation is a pure
// function of (scenario, seed). The leg concurrency must not change a
// byte of stdout, which stays pinned to its golden; detection-on recovers
// bit-identical to the undisturbed run, detection-off corrupts, and the
// invariant suite passes.
func TestSDCStormAnyJobs(t *testing.T) {
	args := []string{"-scenario", "sdc-storm", "-sdc", "-check", "-seed", "20220523"}
	serial := runOK(t, 0, append(args, "-j", "1")...)
	wide := runOK(t, 0, append(args, "-j", "4")...)
	if wide != serial {
		t.Errorf("stdout at -j 4 differs from -j 1\n--- -j 4\n%s--- -j 1\n%s", wide, serial)
	}
	want, err := os.ReadFile("testdata/sdc-storm.golden")
	if err != nil {
		t.Fatal(err)
	}
	if serial != string(want) {
		t.Errorf("stdout differs from testdata/sdc-storm.golden\n--- got\n%s--- want\n%s", serial, want)
	}
	for _, line := range []string{"bit-identical to clean: true", "corrupted: true", "invariants: ok"} {
		if !strings.Contains(serial, line) {
			t.Errorf("stdout lacks %q", line)
		}
	}
}

// TestAllScenariosReplay: every builtin with the invariant suite, run
// twice with a trace, gives byte-identical stdout and traces, and the
// trace is valid JSON.
func TestAllScenariosReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "chaos-trace.json")
	args := []string{"-scenario", "all", "-check", "-seed", "20220523", "-trace", trace}
	var outs, traces [2]string
	for i := range outs {
		outs[i] = runOK(t, 0, args...)
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = string(b)
	}
	if outs[1] != outs[0] {
		t.Errorf("stdout differs between replays\n--- first\n%s--- second\n%s", outs[0], outs[1])
	}
	if traces[1] != traces[0] {
		t.Error("trace differs between replays")
	}
	if strings.Contains(outs[0], "INVARIANT VIOLATION") {
		t.Errorf("invariant violated:\n%s", outs[0])
	}
	if !strings.HasSuffix(outs[0], "summit-chaos: wrote trace to "+trace+"\n") {
		t.Errorf("stdout does not end with the trace line:\n%s", outs[0])
	}
	var parsed any
	if err := json.Unmarshal([]byte(traces[0]), &parsed); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
}

// TestArgumentErrors: bad flags and unknown names exit 2 with the reason
// on stderr and nothing on stdout.
func TestArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-j", "many"}, `invalid value "many" for flag -j`},
		{[]string{"-scenario", "nope"}, `unknown builtin scenario "nope"`},
		{[]string{"-platform", "nope"}, `unknown machine "nope"`},
		{[]string{"-scenario", filepath.Join(t.TempDir(), "absent.chaos")}, "absent.chaos"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run %v exited %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v wrote stdout:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run %v: stderr lacks %q:\n%s", tc.args, tc.stderr, stderr.String())
		}
	}
}
