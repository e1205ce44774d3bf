package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"time"
)

// The host this benchmark runs on changes speed. On the 2-core shared VM it
// was written on, whole minutes pass in which every workload runs 25–60 %
// slower, user and system CPU seconds rising with wall seconds; a register-
// only loop does not slow down, so it is the memory system and the
// hypervisor, not the clock. Ten runs that straddle such a phase spread by
// 0.25–0.49, and no bound the driver allows survives that.
//
// So every untraced run also times a fixed reference workload, before and
// after the measured interval, and divides its timings by
//
//	host factor = median reference time ÷ referenceNominal.
//
// The reported seconds are "seconds on the reference host". The reference
// slowed by the same factor as the workloads to within about a tenth in
// every phase seen (README, Noise), which turned those spreads into
// 0.06–0.12. A change to the repository cannot move the factor: the
// reference is this file and nothing else.
//
// NEVER EDIT the reference workload or referenceNominal: every stored
// result is in their units.

// referenceEnv, when set, turns this binary into the reference workload.
// An environment variable (not a flag) so the test binary can play the
// part too.
const referenceEnv = "COUNTRYRANK_BENCH_REFERENCE"

// referenceNominal is what one reference run took, in seconds, in a quiet
// phase of the box this was written on. It only fixes the scale.
const referenceNominal = 0.66

// referenceShare is the part of -seconds spent timing the reference on
// each side of the measured interval (at least one run a side). A single
// run of the reference is itself uncertain by about a tenth, so the factor
// is the median of every run on both sides.
const referenceShare = 4

var referenceSink uint64

// referenceWork is the three things the measured programs spend their time
// on, in fixed amounts: allocating and chasing pointers through a map of
// small slices (the pipeline's indexes), streaming through large arrays
// (records and MRT bytes), and small messages over loopback TCP (serving).
func referenceWork() error {
	m := map[uint32][]uint32{}
	x := uint32(1)
	for range 600_000 {
		x = x*1664525 + 1013904223
		m[x>>12] = append(m[x>>12], x)
	}
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		referenceSink += uint64(len(m[k]))
	}

	const words = 12 << 20 // 96 MB a side
	a, b := make([]uint64, words), make([]uint64, words)
	for i := range a {
		a[i] = uint64(i)
	}
	for range 2 {
		copy(b, a)
		copy(a, b)
	}
	for _, v := range b {
		referenceSink += v
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		for {
			ch, err := r.ReadByte()
			if err == nil {
				_, err = c.Write([]byte{ch})
			}
			if err != nil {
				echoed <- nil // the dialer hung up: the exchange is over
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	buf := []byte{0}
	for range 40_000 {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		if _, err := c.Read(buf); err != nil {
			return err
		}
	}
	c.Close()
	return <-echoed
}

// referenceMain is the re-executed binary's whole life.
func referenceMain() {
	if err := referenceWork(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reference:", err)
		os.Exit(1)
	}
}

// sampleHost times the reference, each run a fresh process as the measured
// children are, for a share of the run's seconds.
func (b *bench) sampleHost() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for start := time.Now(); ; {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), referenceEnv+"=1")
		t := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("reference workload: %w\n%s", err, out)
		}
		b.add(hostReference, time.Since(t).Seconds())
		if time.Since(start) >= b.seconds/referenceShare {
			return nil
		}
	}
}

// hostReference names the reference's samples among the run's; it is
// printed in the header, not reported as a metric.
const hostReference = "host.reference_s"

// hostFactor is how much slower than nominal the host ran the reference
// during this run.
func (b *bench) hostFactor() (float64, error) {
	if len(b.samples[hostReference]) == 0 {
		return 0, errors.New("the reference workload was not timed")
	}
	return median(b.samples[hostReference]) / referenceNominal, nil
}
