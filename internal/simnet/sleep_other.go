//go:build !linux

package simnet

import (
	"context"
	"runtime"
	"time"
)

// waitUntil busy-waits until deadline, yielding the processor between
// clock reads. Without Linux's timerfd it is the only wait here that
// lands on a sub-millisecond deadline.
func waitUntil(ctx context.Context, deadline time.Time) error {
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return nil
}
