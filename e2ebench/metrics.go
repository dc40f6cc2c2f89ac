package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall   time.Time
	cpu    float64 // user+sys seconds
	allocs uint64  // heap bytes allocated since start
	gcs    uint64  // completed GC cycles
	wchar  uint64  // bytes passed to write(2) and friends
}

func readUsage() (usage, error) {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	u.allocs, u.gcs = s[0].Value.Uint64(), s[1].Value.Uint64()
	w, err := readWchar()
	if err != nil {
		return u, err
	}
	u.wchar = w
	return u, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// readWchar reads the write-byte counter of /proc/self/io.
func readWchar() (uint64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("reading write counter: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("reading write counter: no wchar in /proc/self/io")
}

// region is the resource use between two snapshots.
type region struct {
	wallS     float64
	cpuS      float64
	allocMB   float64
	gcCycles  float64
	writtenMB float64
}

func (u usage) until(end usage) region {
	return region{
		wallS:     end.wall.Sub(u.wall).Seconds(),
		cpuS:      end.cpu - u.cpu,
		allocMB:   float64(end.allocs-u.allocs) / 1e6,
		gcCycles:  float64(end.gcs - u.gcs),
		writtenMB: float64(end.wchar-u.wchar) / 1e6,
	}
}

// measure runs fn and returns the resources it used.
func measure(fn func() error) (region, error) {
	start, err := readUsage()
	if err != nil {
		return region{}, err
	}
	if err := fn(); err != nil {
		return region{}, err
	}
	end, err := readUsage()
	if err != nil {
		return region{}, err
	}
	return start.until(end), nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (which it sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the steadiness of the benchmark is judged. len(xs) >= 2.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// maxRelDev is the largest |x - med| / med over xs.
func maxRelDev(xs []float64, med float64) float64 {
	var d float64
	for _, x := range xs {
		d = math.Max(d, math.Abs(x-med)/med)
	}
	return d
}
