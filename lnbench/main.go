// Command lnbench is LiveNet's end-to-end benchmark. It drives the
// system only through exported package APIs, under three workloads:
//
//	relay-fanout  broadcaster -> producer -> relay -> consumer -> viewers over loopback UDP
//	join-churn    viewer path lookups against a 600-site Brain while link reports stream in
//	sim-cluster   a 24-site packet-level cluster on the in-process emulator
//
// Usage (from the repository root, normally through run.py):
//
//	lnbench --workload relay-fanout --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it measures the workload untraced and prints the
// end-to-end metrics; with --trace 1 it runs every workload once untraced
// and once traced and prints the per-layer metrics. The last line of
// standard output is one JSON object; README.md describes every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int64   `json:"n"`
}

// outcome is what one pass of one workload produced.
type outcome struct {
	attempted, failed int64
	errs              errLog
	e2e               map[string]metric    // the workload-generic keys of BENCHMARK.json
	named             []metric             // the workload's own end-to-end names
	layer             map[string]metric    // per-layer metrics (traced passes)
	cost              float64              // the cost figure trace.overhead compares
	lateMs            []float64            // generator lateness samples (open-loop workloads)
	digest            string               // deterministic output digest, when the workload has one
	windows           map[string][]float64 // per-window percentiles behind p50_ms/p99_ms
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (o *outcome) setE2E(name, unit string, v float64, n int64) {
	o.e2e[name] = metric{name, unit, v, n}
}

func (o *outcome) addNamed(name, unit string, v float64, n int64) {
	o.named = append(o.named, metric{name, unit, v, n})
}

func (o *outcome) setLayer(name, unit string, v float64, n int64) {
	o.layer[name] = metric{name, unit, v, n}
}

// passCfg parameterises one pass of a workload.
type passCfg struct {
	seed     int64
	seconds  float64 // measurement budget for this pass
	tr       *Tracer // nil for untraced passes
	setups   int     // how many times to build the system (setup_s is their median)
	deadline time.Time
	// full is an untraced run reporting the end-to-end metrics: it adds
	// the capacity ramp (open-loop workloads) or a second scenario run
	// that checks determinism (sim-cluster). Passes of a traced run skip
	// both.
	full bool
}

type workload struct {
	name string
	// procs is the workload's GOMAXPROCS; 0 means every CPU. The system
	// and the generator share them.
	procs int
	run   func(passCfg) (*outcome, error)
}

var workloads = []workload{
	// One P: the data plane's goroutines then never wait for, or spin
	// looking for, a second vCPU that a shared host may or may not grant.
	// With two, CPU per copy read 6.8 to 8.5 us for the same seed; with
	// one, within 7 %. Capacity is then per core.
	{"relay-fanout", 1, runRelay},
	// Every CPU: on one P the generator waits behind 5-11 ms lookups, GC
	// and routing epochs (lateness p99 10-20 ms against 2-4 ms).
	{"join-churn", 0, runJoin},
	{"sim-cluster", 0, runSim},
}

// setProcs applies a workload's GOMAXPROCS.
func setProcs(w workload) {
	n := w.procs
	if n <= 0 {
		n = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(n)
}

// e2eSpec lists the end-to-end keys every untraced run reports (the
// end_to_end list of BENCHMARK.json), in order.
var e2eSpec = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"ok_ratio", "ratio"},
}

// layerSpec lists the per-layer keys every traced run reports (the
// per_layer list of BENCHMARK.json), in order.
var layerSpec = []struct{ name, unit string }{
	{"udprun.send_us_per_dgram", "us"},
	{"udprun.send_batch_mean", "count"},
	{"udprun.rx_dropped", "count"},
	{"udprun.rpc_wait_ms_p50", "ms"},
	{"udprun.rpc_wait_ms_p99", "ms"},
	{"node.producer.onmsg_us", "us"},
	{"node.relay.onmsg_us", "us"},
	{"node.consumer.onmsg_us", "us"},
	{"node.fanout_per_ingress", "count"},
	{"node.frame_drops", "count"},
	{"node.sim.onmsg_us_rtp", "us"},
	{"node.sim.onmsg_us_rtcp", "us"},
	{"node.sim.onmsg_us_ctrl", "us"},
	{"node.rtx_ratio", "ratio"},
	{"node.hole_recovered_ratio", "ratio"},
	{"node.local_hit_ratio", "ratio"},
	{"gcc.pacer_wait_ms_p50", "ms"},
	{"gcc.pacer_wait_ms_p99", "ms"},
	{"brain.lookup_us_p50", "us"},
	{"brain.lookup_us_p99", "us"},
	{"brain.report_us_p50", "us"},
	{"brain.epoch_ms_p50", "ms"},
	{"brain.epoch_ms_max", "ms"},
	{"brain.pib_miss_ratio", "ratio"},
	{"brain.pib_invalidate_full", "count"},
	{"brain.pib_invalidate_incremental", "count"},
	{"brain.resp_ms_p50", "ms"},
	{"sim.events_per_sim_s", "1/s"},
	{"sim.events_per_wall_s", "1/s"},
	{"netem.dgrams_per_sim_s", "1/s"},
	{"netem.loss_ratio", "ratio"},
	{"client.onmsg_us", "us"},
	{"sim.other_share", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gen.late_ms_max", "ms"},
	{"trace.overhead.relay-fanout", "ratio"},
	{"trace.overhead.join-churn", "ratio"},
	{"trace.overhead.sim-cluster", "ratio"},
}

// Generator lateness limits: an open-loop run whose generator sent this
// late is not a measurement of the system and is rejected.
const (
	maxLateP99Ms = 50.0
	maxLateMaxMs = 500.0
)

// watchdog ends a wedged run: no result line, non-zero exit.
const watchdog = 170 * time.Second

func main() {
	name := flag.String("workload", "", "relay-fanout | join-churn | sim-cluster")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for span logs and full results")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lnbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lnbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "lnbench: watchdog: run exceeded", watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	if err := run(*name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "lnbench:", err)
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func find(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(name string, seed int64, seconds float64, traced bool, outDir string) error {
	sel, ok := find(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	deadline := time.Now().Add(watchdog - 15*time.Second)
	setProcs(sel)
	meta := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", mb)

	var outs []*outcome
	metrics := map[string]metric{}
	if !traced {
		o, err := sel.run(passCfg{seed: seed, seconds: seconds, setups: 15, deadline: deadline, full: true})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		outs = append(outs, o)
		checkLateness(o)
		printNamed(name, "untraced", o)
		for _, s := range e2eSpec {
			m, ok := o.e2e[s.name]
			if !ok {
				return fmt.Errorf("%s: metric %s not measured", name, s.name)
			}
			metrics[s.name] = m
		}
	} else {
		// Every layer is exercised by one workload, so the traced run
		// covers all three: each runs once untraced and once traced with
		// the same seed, the selected one for longer.
		layer := map[string]metric{}
		var lateMs []float64
		for _, w := range workloads {
			secs := max(4, seconds/4)
			if w.name == name {
				secs = max(4, seconds/2)
			}
			setProcs(w)
			base, err := w.run(passCfg{seed: seed, seconds: secs, setups: 1, deadline: deadline})
			if err != nil {
				return fmt.Errorf("%s untraced: %w", w.name, err)
			}
			checkLateness(base)
			printNamed(w.name, "untraced", base)
			wtr := newTracer()
			o, err := w.run(passCfg{seed: seed, seconds: secs, tr: wtr, setups: 1, deadline: deadline})
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			checkLateness(o)
			printNamed(w.name, "traced", o)
			if err := sameDigest(base, o); err != nil {
				o.errs.add(err)
			}
			for k, m := range o.layer {
				if strings.HasPrefix(k, "go.") && w.name != name {
					continue
				}
				layer[k] = m
			}
			over := ratio(o.cost, base.cost) - 1
			layer["trace.overhead."+w.name] = metric{"trace.overhead." + w.name, "ratio", over, 2}
			lateMs = append(lateMs, o.lateMs...)
			outs = append(outs, base, o)
			if err := wtr.writeTo(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, seed))); err != nil {
				return err
			}
		}
		if len(lateMs) > 0 {
			layer["gen.late_ms_p99"] = metric{"gen.late_ms_p99", "ms", pct(lateMs, 0, 99), int64(len(lateMs))}
			layer["gen.late_ms_max"] = metric{"gen.late_ms_max", "ms", pct(lateMs, 0, 100), int64(len(lateMs))}
		}
		for _, s := range layerSpec {
			m, ok := layer[s.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s not measured", s.name)
			}
			metrics[s.name] = m
		}
	}

	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	var errs []string
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.errs.n > 0 {
			res.Correct = false
			errs = append(errs, o.errs.msgs...)
		}
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := metrics[k]
		fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		res.Metrics[k] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
	}
	for _, e := range errs {
		fmt.Printf("# validation: %s\n", e)
	}
	for k, m := range metrics {
		m.Value = finite(m.Value)
		metrics[k] = m
	}
	full, err := json.MarshalIndent(map[string]any{"meta": meta, "metrics": metrics, "named": namedOf(outs), "windows": windowsOf(outs), "errors": errs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%v.json", name, seed, traced)), full, 0o644); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checkLateness rejects an open-loop run whose generator fell behind.
func checkLateness(o *outcome) {
	if len(o.lateMs) == 0 {
		return
	}
	lat := append([]float64(nil), o.lateMs...)
	p99, mx := pct(lat, 0, 99), pct(lat, 0, 100)
	o.addNamed("gen.late_ms_p99", "ms", p99, int64(len(lat)))
	o.addNamed("gen.late_ms_max", "ms", mx, int64(len(lat)))
	if p99 > maxLateP99Ms || mx > maxLateMaxMs {
		o.errs.add(fmt.Errorf("generator fell behind: lateness p99 %.1f ms, max %.1f ms", p99, mx))
	}
}

// sameDigest checks that tracing did not perturb a deterministic
// workload: both passes ran the same seed, so their digests must match.
func sameDigest(a, b *outcome) error {
	if a.digest != b.digest {
		return fmt.Errorf("QoE digest differs between untraced (%s) and traced (%s) runs", a.digest, b.digest)
	}
	return nil
}

func printNamed(name, pass string, o *outcome) {
	for _, m := range o.named {
		fmt.Printf("named %-12s %-8s %-28s %14.6g %-6s n=%d\n", name, pass, m.Name, m.Value, m.Unit, m.N)
	}
}

func windowsOf(outs []*outcome) []map[string][]float64 {
	var out []map[string][]float64
	for _, o := range outs {
		w := map[string][]float64{}
		for k, vs := range o.windows {
			for _, v := range vs {
				w[k] = append(w[k], finite(v))
			}
		}
		out = append(out, w)
	}
	return out
}

func finiteMetrics(ms []metric) []metric {
	out := make([]metric, len(ms))
	for i, m := range ms {
		m.Value = finite(m.Value)
		out[i] = m
	}
	return out
}

func namedOf(outs []*outcome) [][]metric {
	var out [][]metric
	for _, o := range outs {
		out = append(out, finiteMetrics(o.named))
	}
	return out
}

// finite maps +Inf (a percentile that landed on failures) to the largest
// float JSON can carry, so a failed run still reads as the worst value.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta captures allocation and GC-pause counters around a pass.
type memDelta struct{ mallocs, pauseNs uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.PauseTotalNs}
}

// goLayer records go.allocs_per_op and go.gc_pause_ms for a pass.
func goLayer(o *outcome, before memDelta, ops int64) {
	after := readMem()
	o.setLayer("go.allocs_per_op", "count", ratio(float64(after.mallocs-before.mallocs), float64(ops)), ops)
	o.setLayer("go.gc_pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6, 1)
}
