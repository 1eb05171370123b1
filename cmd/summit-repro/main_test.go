package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRun drives the command in process: the default Summit report and
// the off-baseline replay at two widths and -md against their stdout
// goldens, the RS2 trace against the core package's pinned artifact, one
// experiment on each machine (Summit's T1, Frontier's replay of S4), and
// the argument errors.
func TestRun(t *testing.T) {
	rs2Trace := filepath.Join(t.TempDir(), "rs2.json")
	for _, tc := range []struct {
		name string
		args []string
		code int
		// stdout, when set, is the whole expected stdout; suffix is
		// checked otherwise.
		stdout, suffix string
		stderr         string // substring expected on stderr; "" = empty
		// trace, when set, is a golden the -trace file must equal.
		trace string
	}{
		{name: "frontier -j 1", args: []string{"-platform", "frontier", "-j", "1"}, code: 1,
			stdout: readFile(t, "testdata/frontier.golden"),
			stderr: "one or more metrics deviate from the paper"},
		{name: "frontier -j 4", args: []string{"-platform", "frontier", "-j", "4"}, code: 1,
			stdout: readFile(t, "testdata/frontier.golden"),
			stderr: "one or more metrics deviate from the paper"},
		{name: "md", args: []string{"-md"},
			stdout: readFile(t, "testdata/md.golden")},
		{name: "RS2 trace", args: []string{"-experiment", "RS2", "-trace", rs2Trace},
			suffix: "summit-repro: wrote trace to " + rs2Trace + "\nsummit-repro: all experiments within tolerance\n",
			trace:  "../../internal/core/testdata/trace-RS2.golden.json"},
		{name: "default -j 1", args: []string{"-j", "1"},
			stdout: readFile(t, "testdata/summit.golden")},
		{name: "default -j 4", args: []string{"-j", "4"},
			stdout: readFile(t, "testdata/summit.golden")},
		{name: "T1", args: []string{"-experiment", "T1"},
			stdout: readFile(t, "testdata/summit-T1.golden")},
		{name: "frontier S4", args: []string{"-platform", "frontier", "-experiment", "S4"},
			stdout: readFile(t, "testdata/frontier-S4.golden")},
		{name: "unknown experiment", args: []string{"-experiment", "Z9"}, code: 2,
			stderr: `unknown experiment "Z9"`},
		{name: "experiment not replayed", args: []string{"-platform", "frontier", "-experiment", "T1"}, code: 2,
			stderr: `platform frontier does not replay experiment "T1"`},
		{name: "unknown platform", args: []string{"-platform", "bogus"}, code: 2,
			stderr: `unknown machine "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("run %v exited %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr.String())
			}
			switch {
			case tc.stdout != "":
				if stdout.String() != tc.stdout {
					t.Errorf("stdout differs from the golden\n--- got\n%s--- want\n%s", stdout.String(), tc.stdout)
				}
			case tc.suffix != "":
				if !strings.HasSuffix(stdout.String(), tc.suffix) {
					t.Errorf("stdout does not end with %q:\n%s", tc.suffix, stdout.String())
				}
			default:
				if stdout.Len() != 0 {
					t.Errorf("stdout not empty:\n%s", stdout.String())
				}
			}
			if tc.stderr == "" && stderr.Len() != 0 {
				t.Errorf("stderr not empty:\n%s", stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.trace != "" && readFile(t, rs2Trace) != readFile(t, tc.trace) {
				t.Errorf("-trace file differs from %s", tc.trace)
			}
		})
	}
}
