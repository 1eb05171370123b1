//go:build !amd64 || !gc

package optim

// lambSIMD is false where no assembly kernel is built, so LAMB runs its
// Go loops over every element.
const lambSIMD = false

// lambMomentsAVX2 is never called on these hosts.
func lambMomentsAVX2(wd, gd, md, vd, ud *float64, n int, k *lambCoef) (wSq, uSq float64) {
	panic("optim: no AVX2 kernel on this host")
}

// lambApplyAVX2 is never called on these hosts.
func lambApplyAVX2(wd, ud *float64, n int, s float64) {
	panic("optim: no AVX2 kernel on this host")
}
