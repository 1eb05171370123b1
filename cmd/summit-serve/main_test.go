package main

import (
	"bytes"
	"encoding/json"
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

// TestRunAnyJobs: the serving report is a pure function of (platform,
// seed, flags). The batched-plus-unbatched run and the serving-storm
// replay print their goldens at -j 1 and -j 4, the batched run's trace is
// byte-identical at both widths and valid JSON, and the only stderr line
// is the trace notice.
func TestRunAnyJobs(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		args   []string
		golden string
		trace  bool
	}{
		{name: "unbatched", args: []string{"-seed", "42", "-unbatched"}, golden: "testdata/unbatched.golden", trace: true},
		{name: "serving-storm", args: []string{"-seed", "42", "-scenario", "serving-storm"}, golden: "testdata/serving-storm.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := readFile(t, tc.golden)
			var traces []string
			for _, j := range []string{"1", "4"} {
				args := append([]string{"-j", j}, tc.args...)
				wantErr := ""
				if tc.trace {
					path := filepath.Join(dir, tc.name+"-j"+j+".json")
					args = append(args, "-trace", path)
					wantErr = "summit-serve: wrote trace to " + path + "\n"
				}
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("run %v exited %d; stderr:\n%s", args, code, stderr.String())
				}
				if stdout.String() != want {
					t.Errorf("-j %s: stdout differs from %s\n--- got\n%s--- want\n%s", j, tc.golden, stdout.String(), want)
				}
				if stderr.String() != wantErr {
					t.Errorf("-j %s: stderr = %q, want %q", j, stderr.String(), wantErr)
				}
				if tc.trace {
					traces = append(traces, readFile(t, filepath.Join(dir, tc.name+"-j"+j+".json")))
				}
			}
			if !tc.trace {
				return
			}
			if traces[1] != traces[0] {
				t.Error("trace at -j 4 differs from -j 1")
			}
			var parsed any
			if err := json.Unmarshal([]byte(traces[0]), &parsed); err != nil {
				t.Fatalf("trace is not JSON: %v", err)
			}
		})
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
