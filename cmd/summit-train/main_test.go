package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunGolden trains each model for four epochs on two ranks and
// compares stdout, with the checkpoint path written as CKPT, against
// testdata/<model>.golden and the checkpoint's sha256 against the
// recorded one. The losses and the saved weights carry every rounding of
// every step, so this pins the arithmetic of the whole training step,
// layers, allreduce and optimizer, end to end.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		model, ckptSHA256 string
	}{
		{"cnn", "6fe5451704239ff0f3476427752c7a373140e1d50e2cccb14ae1f8730a3726e6"},
		{"mlp", "944f1d867dc5a372a8fe580e7152f07209a90c1e9e88f02aea26b63212b0a769"},
	} {
		t.Run(tc.model, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), tc.model+".ckpt")
			var stdout, stderr bytes.Buffer
			args := []string{"-model", tc.model, "-ranks", "2", "-epochs", "4", "-ckpt", ckpt}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("run %v exited %d; stderr:\n%s", args, code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("stderr not empty:\n%s", stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.model+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.ReplaceAll(stdout.String(), ckpt, "CKPT"); got != string(want) {
				t.Errorf("stdout differs from the golden\n--- got\n%s--- want\n%s", got, want)
			}
			b, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != tc.ckptSHA256 {
				t.Errorf("checkpoint sha256 %x, want %s", sum, tc.ckptSHA256)
			}
		})
	}
}

// TestRunUnknownOptimizer: a bad -opt is an argument error, exit 2, with
// its message on stderr and nothing on stdout.
func TestRunUnknownOptimizer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "cnn", "-ranks", "2", "-epochs", "1", "-opt", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
	}
	if want := "summit-train: unknown optimizer \"bogus\"\n"; stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
}
