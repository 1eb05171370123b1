package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunAnyJobs: every campaign report is a pure function of (platform,
// campaign, seed). The mixed suite, throughput mode and the
// campaign-storm replay print their goldens at -j 1 and -j 4 with nothing
// on stderr. The proxyloss column trains real multi-rank ddl over the
// ring allreduce, so these goldens also pin that training bit for bit.
func TestRunAnyJobs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
	}{
		{name: "mixed", golden: "testdata/mixed.golden"},
		{name: "throughput", args: []string{"-workload", "cosmoflow", "-instances", "4"}, golden: "testdata/throughput.golden"},
		{name: "campaign-storm", args: []string{"-scenario", "campaign-storm", "-seed", "42"}, golden: "testdata/campaign-storm.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := readGolden(t, tc.golden)
			for _, j := range []string{"1", "4"} {
				args := append([]string{"-j", j}, tc.args...)
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("run %v exited %d; stderr:\n%s", args, code, stderr.String())
				}
				if stdout.String() != want {
					t.Errorf("-j %s: stdout differs from %s\n--- got\n%s--- want\n%s", j, tc.golden, stdout.String(), want)
				}
				if stderr.Len() != 0 {
					t.Errorf("-j %s: stderr = %q, want empty", j, stderr.String())
				}
			}
		})
	}
}

// TestSweep: the strong/weak scaling sweeps print their golden.
func TestSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", "cosmoflow"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr.String())
	}
	if want := readGolden(t, "testdata/sweep.golden"); stdout.String() != want {
		t.Errorf("stdout differs from testdata/sweep.golden\n--- got\n%s--- want\n%s", stdout.String(), want)
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
		{[]string{"-platform", "nope"}, `unknown machine "nope"`},
		{[]string{"-sweep", "nope"}, `unknown workload "nope"`},
		{[]string{"-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"-scenario", "nope"}, `unknown builtin scenario "nope"`},
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
