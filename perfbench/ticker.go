package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// The open-loop schedule is kept by a child process. With one P, the
// Go runtime wakes a sleeping goroutine of an idle process only on whole
// milliseconds, longer than a send interval; and a raw nanosleep in the
// benchmark process would hold its only P while it sleeps. The ticker
// child sleeps with nanosleep at minimal timer slack and writes one byte
// per tick into a pipe, whose readiness wakes the benchmark's generator
// at once.

// tickerStartup is the margin between starting the ticker and its first
// tick.
const tickerStartup = 50 * time.Millisecond

// ticker is a running ticker child and the read end of its pipe.
type ticker struct {
	io.Reader
	cmd *exec.Cmd
}

// startTicker starts a ticker child that ticks n times, interval apart,
// from start.
func startTicker(start time.Time, interval time.Duration, n int) (*ticker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-tick-start", strconv.FormatInt(start.UnixNano(), 10),
		"-tick-interval", interval.String(),
		"-ticks", strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ticker: %w", err)
	}
	return &ticker{Reader: out, cmd: cmd}, nil
}

// wait waits for the ticker child to exit.
func (t *ticker) wait() error {
	if err := t.cmd.Wait(); err != nil {
		return fmt.Errorf("ticker: %w", err)
	}
	return nil
}

// runTicker is the ticker child's main: one byte on standard output at
// each of n ticks, interval apart from the wall-clock time startNs.
func runTicker(startNs int64, interval time.Duration, n int) error {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	one := []byte{1}
	for i := 0; i < n; i++ {
		due := time.Unix(0, startNs).Add(time.Duration(i) * interval)
		// A signal can end the sleep early; sleep again until due.
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		if _, err := os.Stdout.Write(one); err != nil {
			return err
		}
	}
	return nil
}
