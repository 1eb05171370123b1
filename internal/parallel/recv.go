package parallel

import (
	"runtime"
	"time"
)

// hotWait bounds how long Recv polls before it parks. A parked receiver
// is woken by the sender, and on a virtualised host an idle vCPU takes
// tens of microseconds to come back: longer than a 2-rank ring step's
// whole exchange, or than a pool helper's share of a serving batch. On a
// 2-vCPU KVM Xeon, perfbench's train-cnn gained a median +14% with a
// 20 µs bound, +25% with 100 µs and +26% with 300 µs, at which the cold
// repro got slightly slower.
const hotWait = 100 * time.Microsecond

// Recv is a hot receive: v, ok := <-ch, except that a receiver finding ch
// empty polls it for up to hotWait of wall time before it parks, calling
// runtime.Gosched between polls so that any goroutine runnable on its P
// runs first. Values arrive in channel order either way, and ok is false
// once ch is closed and drained.
//
// A poll yields to runnable work, so it costs no one else wall time, but
// it spends CPU time that a parked receiver would leave idle: where ranks
// outnumber cores, the process uses more CPU for the same wall time.
func Recv[T any](ch <-chan T) (v T, ok bool) {
	select {
	case v, ok = <-ch:
		return v, ok
	default:
	}
	for deadline := time.Now().Add(hotWait); time.Now().Before(deadline); {
		runtime.Gosched()
		select {
		case v, ok = <-ch:
			return v, ok
		default:
		}
	}
	v, ok = <-ch
	return v, ok
}
