package main

import (
	"bytes"
	"os"
	"testing"
)

// runOn runs the command with the file at path (or nothing) on stdin.
func runOn(t *testing.T, path string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var in []byte
	if path != "" {
		var err error
		if in, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	code = run(args, bytes.NewReader(in), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunGolden pins the JSON document a canned `go test -bench
// -benchmem` stream (three packages at GOMAXPROCS 2) converts to.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runOn(t, "testdata/stream.txt")
	if code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from testdata/stream.golden\n--- got\n%s--- want\n%s", stdout, want)
	}
	if stderr != "" {
		t.Errorf("stderr = %q, want empty", stderr)
	}
}

// TestRunFailures: -floors on a stream with no floor benchmarks, -check
// against a baseline recorded at another GOMAXPROCS, and an empty stream
// each exit 1 with one line on stderr.
func TestRunFailures(t *testing.T) {
	for _, tc := range []struct {
		name, stdin string
		args        []string
		stdout      string
		stderr      string
	}{
		{"floors without floor benchmarks", "testdata/stream.txt", []string{"-floors"},
			"kernel floor check (gomaxprocs 2):\n",
			"summit-bench: no kernel-floor benchmarks in stream (need Gemm*, MDForces, ServeHotPath, CampaignHotPath, CheckpointDrain, TrainStepAlloc)\n"},
		{"check across gomaxprocs", "testdata/stream.txt", []string{"-check", "testdata/baseline-gomaxprocs1.json"},
			"",
			"summit-bench: refusing to compare: baseline testdata/baseline-gomaxprocs1.json was measured at gomaxprocs=1, this run at 2 — parallel-kernel timings from different core counts are not comparable; regenerate the baseline on a matching machine\n"},
		{"empty stdin", "", nil,
			"",
			"summit-bench: no benchmark lines on stdin\n"},
	} {
		code, stdout, stderr := runOn(t, tc.stdin, tc.args...)
		if code != 1 {
			t.Errorf("%s: exited %d, want 1", tc.name, code)
		}
		if stdout != tc.stdout {
			t.Errorf("%s: stdout = %q, want %q", tc.name, stdout, tc.stdout)
		}
		if stderr != tc.stderr {
			t.Errorf("%s: stderr = %q, want %q", tc.name, stderr, tc.stderr)
		}
	}
}
