package simnet

import (
	"context"
	"runtime/pprof"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Concurrent sub-millisecond sleeps park their goroutines instead of
// burning a core each: process CPU stays well under the wall time.
func TestSleepDoesNotSpin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds CPU")
	}
	const goroutines, sleeps, d = 4, 300, 300 * time.Microsecond
	cpu0 := processCPU(t)
	start := time.Now()
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sleeps {
				_ = sleep(context.Background(), d)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if ratio := float64(processCPU(t)-cpu0) / float64(wall); ratio >= 0.5 {
		t.Fatalf("process CPU / wall = %.2f over %v, want < 0.5", ratio, wall)
	}
}

// Waiting sleepers hold no OS thread: concurrent sleeps park on the
// netpoller instead of blocking a thread each in a read.
func TestSleepParksOnNetpoller(t *testing.T) {
	const goroutines, sleeps = 32, 20
	threads := pprof.Lookup("threadcreate")
	before := threads.Count()
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sleeps {
				_ = sleep(context.Background(), 800*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := threads.Count() - before; n > 8 {
		t.Fatalf("%d OS threads created for %d concurrent sleepers, want <= 8", n, goroutines)
	}
}

// Sleeps reuse idle timerfds: no more are created than sleeps ever run
// at once.
func TestSleepReusesTimerFDs(t *testing.T) {
	const goroutines, sleeps = 8, 200
	before := createdTimerFDs()
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sleeps {
				_ = sleep(context.Background(), 300*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := createdTimerFDs() - before; n > goroutines {
		t.Fatalf("%d timerfds created for %d concurrent sleepers", n, goroutines)
	}
}

func createdTimerFDs() int {
	timerFDs.Lock()
	defer timerFDs.Unlock()
	return timerFDs.created
}

// processCPU is the user plus system CPU time the process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
