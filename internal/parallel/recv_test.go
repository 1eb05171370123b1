package parallel

import (
	"testing"
	"time"
)

// spin busy-waits for d, so a waiter on another goroutine is still in
// Recv's poll window when the spinner sends.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestRecvOrderAndClose: Recv hands values over in send order and then
// reports ok == false with the zero value once the channel is closed and
// drained. The values are ready before the receive, sent inside the poll
// window, or sent after a sleep twice the window, so that the receiver
// has parked.
func TestRecvOrderAndClose(t *testing.T) {
	vals := []int{3, 1, 4, 1, 5, 9, 2, 6}
	for _, tc := range []struct {
		name  string
		pause func()
	}{
		{"ready", nil},
		{"polled", func() { spin(hotWait / 10) }},
		{"parked", func() { time.Sleep(2 * hotWait) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := make(chan int, len(vals))
			send := func() {
				for _, v := range vals {
					if tc.pause != nil {
						tc.pause()
					}
					ch <- v
				}
				close(ch)
			}
			if tc.pause == nil {
				send()
			} else {
				go send()
			}
			for i, want := range vals {
				if got, ok := Recv(ch); !ok || got != want {
					t.Fatalf("value %d: Recv = %d, %v; want %d, true", i, got, ok, want)
				}
			}
			if got, ok := Recv(ch); ok || got != 0 {
				t.Fatalf("after close: Recv = %d, %v; want 0, false", got, ok)
			}
		})
	}
}

// TestRunRangeAfterHelpersPark: RunRange calls spaced twice the poll
// window apart, so that the helpers have parked between them, still run
// every chunk and match the width-1 result bit for bit.
func TestRunRangeAfterHelpersPark(t *testing.T) {
	const n, grain = 997, 16
	sum := func(p *WorkerPool) float64 {
		shards := make([]float64, (n+grain-1)/grain)
		p.RunRange(n, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				shards[lo/grain] += 1 / float64(i+1)
			}
		})
		var s float64
		for _, v := range shards {
			s += v
		}
		return s
	}
	want := sum(NewWorkerPool(1))
	for _, w := range []int{2, 4} {
		p := NewWorkerPool(w)
		for call := 0; call < 5; call++ {
			time.Sleep(2 * hotWait)
			if got := sum(p); got != want {
				t.Fatalf("width %d call %d: sum %v, width 1 %v", w, call, got, want)
			}
		}
		p.Close()
	}
}
