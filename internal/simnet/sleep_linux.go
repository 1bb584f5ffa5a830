//go:build linux

package simnet

import (
	"context"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// waitUntil parks the calling goroutine until deadline on a timerfd
// read through the runtime's netpoller. The goroutine's thread and P
// are free for other work while it waits, and the kernel hrtimer wakes
// it shortly after the deadline and never before it, with neither the
// Go timer's 1 ms rounding nor nanosleep's timer slack. A thread
// blocked in nanosleep or a blocking read would instead hold its P
// until sysmon retakes it. Cancellation is seen at the wake, at most
// timerRounding late. When no timerfd can be had, the wait falls back
// to a Go timer.
func waitUntil(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := time.Until(deadline)
	if d <= 0 {
		return nil
	}
	t, err := getTimerFD()
	if err != nil {
		return timerWait(ctx, d)
	}
	if err := t.wait(d); err != nil {
		_ = t.f.Close() // the descriptor is in an unknown state; drop it
		return timerWait(ctx, time.Until(deadline))
	}
	putTimerFD(t)
	if err := ctx.Err(); err != nil {
		return err
	}
	// ctx's own deadline is kept by a Go timer that may not have fired
	// yet; a wait that outlived it must not report success.
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// timerFD is one CLOCK_MONOTONIC timerfd. It is created non-blocking,
// which is what makes os.NewFile register it with the netpoller, so
// reading it parks the goroutine until the timer expires; a blocking
// descriptor would hold a thread per wait instead.
type timerFD struct {
	// fd is the raw descriptor kept from creation, used to arm the
	// timer without going through (*os.File).Fd, which may switch a
	// descriptor to blocking mode.
	fd   int
	f    *os.File
	spec itimerspec
	buf  [8]byte // the expiration count, read and discarded
}

type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Now's monotonic reading uses

// timerFDs is the free list of idle timerfds. It grows to the peak
// number of concurrent waits and keeps them open; a sync.Pool would
// let the GC drop descriptors only to create them again.
var timerFDs struct {
	sync.Mutex
	idle    []*timerFD
	created int
}

func getTimerFD() (*timerFD, error) {
	timerFDs.Lock()
	if n := len(timerFDs.idle); n > 0 {
		t := timerFDs.idle[n-1]
		timerFDs.idle = timerFDs.idle[:n-1]
		timerFDs.Unlock()
		return t, nil
	}
	timerFDs.Unlock()
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	timerFDs.Lock()
	timerFDs.created++
	timerFDs.Unlock()
	return &timerFD{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func putTimerFD(t *timerFD) {
	timerFDs.Lock()
	timerFDs.idle = append(timerFDs.idle, t)
	timerFDs.Unlock()
}

// wait arms the timer to expire once, d from now, and reads it. d must
// be positive: a zero expiry disarms the timer and the read would
// never return.
func (t *timerFD) wait(d time.Duration) error {
	t.spec.value = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := t.f.Read(t.buf[:])
	return err
}
