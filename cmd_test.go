package summitscale_test

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEveryCommandHasInProcessTest fails when a directory under cmd/
// lacks a main_test.go: every command is a run(args, ...) int that its
// own test drives in process.
func TestEveryCommandHasInProcessTest(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		commands++
		if _, err := os.Stat(filepath.Join("cmd", e.Name(), "main_test.go")); err != nil {
			t.Errorf("cmd/%s has no main_test.go", e.Name())
		}
	}
	if commands == 0 {
		t.Fatal("no command directories under cmd/")
	}
}
