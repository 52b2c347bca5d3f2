package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// pct returns the p-th percentile (0..100, nearest rank) of xs with
// `failed` extra samples counted as +Inf: a failed operation misses every
// latency limit, so failures push every percentile up rather than
// vanishing from the sample. xs is sorted in place.
func pct(xs []float64, failed int, p float64) float64 {
	n := len(xs) + failed
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		return math.Inf(1)
	}
	return xs[rank-1]
}

// median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 { return pct(xs, 0, 50) }

// medianOf is the median of xs, the mean of the middle two for an even
// count; xs keeps its order. NaN when empty.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// meanF is the arithmetic mean; 0 when empty.
func meanF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// hostCPU reads the machine-wide CPU counters from /proc/stat: steal
// (time the hypervisor ran something else) and the total. ok is false
// where the file does not exist.
func hostCPU() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealMeter measures the share of machine CPU time stolen by the
// hypervisor over an interval: a disturbed run shows here.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := hostCPU()
	return stealMeter{s, t, ok}
}

func (m stealMeter) share() float64 {
	s, t, ok := hostCPU()
	if !ok || !m.ok {
		return 0
	}
	return ratio(float64(s-m.steal), float64(t-m.total))
}

// udpRcvbufErrors is the machine's count of UDP datagrams dropped
// because a receive buffer was full (/proc/net/snmp); ok is false where
// the file does not exist. Loopback loss shows here and nowhere else.
func udpRcvbufErrors() (n uint64, ok bool) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	var head []string
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Udp:" {
			continue
		}
		if head == nil {
			head = f
			continue
		}
		for i, name := range head {
			if name == "RcvbufErrors" && i < len(f) {
				n, err := strconv.ParseUint(f[i], 10, 64)
				return n, err == nil
			}
		}
		return 0, false
	}
	return 0, false
}
