//go:build !amd64 || !gc

package tensor

// goFallback runs f: these hosts have no AVX2 kernel, so every product
// takes the Go fallback already.
func goFallback(f func()) { f() }
