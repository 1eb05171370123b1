//go:build !amd64 || !gc

package tensor

import "testing"

// goFallback runs f: these hosts have no AVX2 kernel, so every product
// takes the Go fallback already.
func goFallback(f func()) { f() }

// setTile16 skips tb when asked for the 16-wide tile, which these hosts
// do not have; off, it changes nothing.
func setTile16(tb testing.TB, on bool) (restore func()) {
	if on {
		tb.Skip("no AVX-512 tile on this host")
	}
	return func() {}
}
