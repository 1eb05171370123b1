package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunGolden pins the default report and each single-artifact mode
// to testdata/.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{nil, "testdata/default.golden"},
		{[]string{"-fig", "4"}, "testdata/fig4.golden"},
		{[]string{"-table", "3"}, "testdata/table3.golden"},
		{[]string{"-csv", "fig2"}, "testdata/csv-fig2.golden"},
		{[]string{"-gb"}, "testdata/gb.golden"},
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

// TestSVG: -svg writes Figures 1-6 and the Summit scaling curves s1-s5,
// in that order, each byte-identical to testdata/svg/.
func TestSVG(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-svg", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d; stderr:\n%s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/svg.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(stdout.String(), dir, "DIR"); got != string(want) {
		t.Errorf("stdout differs from testdata/svg.golden\n--- got\n%s--- want\n%s", got, want)
	}
	golden, err := filepath.Glob("testdata/svg/*.svg")
	if err != nil || len(golden) != 11 {
		t.Fatalf("testdata/svg holds %d files (%v), want 11", len(golden), err)
	}
	wrote, _ := filepath.Glob(filepath.Join(dir, "*.svg"))
	if len(wrote) != len(golden) {
		t.Errorf("wrote %d files, want %d", len(wrote), len(golden))
	}
	for _, g := range golden {
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(g)))
		if err != nil {
			t.Error(err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s", filepath.Base(g), g)
		}
	}
}

// TestArgumentErrors: an unknown figure, table or CSV export exits 2
// with one line on stderr and nothing on stdout.
func TestArgumentErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9"},
		{"-table", "4"},
		{"-csv", "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "summit-report: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one summit-report line", args, msg)
		}
	}
}
