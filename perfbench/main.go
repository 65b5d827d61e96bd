// Command gem-perf is the benchmark of the gem simulator: one process runs
// one named workload of generated inputs through the public gem facade for
// a fixed host time, checks every output against what the benchmark itself
// generated, and prints its metrics as one JSON line.
//
//	gem-perf --workload incast-spill --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced rounds with rounds under a CPU profile and per-call
// timers, and prints the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workload is one named set of generated inputs. setup builds a fresh
// testbed over them; every round of a run replays the same inputs.
type workload interface {
	setup(tc *tracer) (bed, error)
}

// bed is one round's testbed: run drives it to quiescence, finish checks
// the outputs and collects counters.
type bed interface {
	run()
	finish() outcome
}

// outcome is what one round produced.
type outcome struct {
	ops      int       // operations the round attempted
	failed   int       // operations lost to the one fault the workload keeps visible
	problems []string  // anything else wrong with the outputs
	events   uint64    // simulation events executed
	lat      []float64 // per-frame one-way latency in simulated ns
	makespan float64   // simulated ns from the first due frame to the end of the work
	layer    map[string]float64
}

var workloads = map[string]func(seed int64) workload{
	"incast-spill":   func(seed int64) workload { return newIncast(seed) },
	"telemetry-faa":  func(seed int64) workload { return newTelemetry(seed) },
	"lookup-miss":    func(seed int64) workload { return newLookup(seed) },
	"lossy-recovery": func(seed int64) workload { return newLossy(seed) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gem-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: incast-spill, telemetry-faa, lookup-miss or lossy-recovery")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "host seconds to keep starting rounds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "gem-perf: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		return 2
	}
	host := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stderr, "gem-perf: %s seed=%d seconds=%g trace=%d %s\n", *name, *seed, *seconds, *trace, host)

	w := mk(*seed)
	res, err := measure(w, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "gem-perf: %v\n", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "gem-perf: check failed: %s\n", p)
	}
	var m map[string]metric
	if *trace == 1 {
		m = res.perLayer()
	} else {
		m = res.endToEnd()
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "  %-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(stderr, "  rounds=%d attempted=%d failed=%d correct=%v\n", len(res.rounds), res.attempted, res.failed, res.correct())
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, m})
	if err != nil {
		fmt.Fprintf(stderr, "gem-perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# host %s\n%s\n", host, line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// round is one set-up, run and check of a workload's inputs.
type round struct {
	traced     bool
	setup, run float64 // host seconds
	allocBytes float64
	out        outcome
}

type results struct {
	rounds    []round
	attempted int64
	failed    int64
	problems  []string
	tc        *tracer
	self      map[string]float64 // profiled CPU ns per bucket, traced rounds
	cpu       float64            // process CPU seconds spent in traced rounds
	rssKB     int64
}

func (r *results) correct() bool { return len(r.problems) == 0 }

// measure runs whole rounds until seconds of host time have passed. Each
// round starts from a collected heap returned to the OS, so no round's set
// up inherits garbage or warm pages from the one before. A traced run
// alternates untraced and traced rounds, beginning untraced.
func measure(w workload, seconds float64, trace bool, stderr io.Writer) (*results, error) {
	res := &results{tc: &tracer{}, self: map[string]float64{}}
	start := time.Now()
	minRounds := 1
	if trace {
		minRounds = 2
	}
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		rd, err := oneRound(w, res, trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "  round %d traced=%v setup=%.6fs run=%.6fs ops_per_s=%.0f\n", i, rd.traced, rd.setup, rd.run, opsPerSec(&rd))
		res.rounds = append(res.rounds, rd)
		res.attempted += int64(rd.out.ops)
		res.failed += int64(rd.out.failed)
		for _, p := range rd.out.problems {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %s", i, p))
		}
		if len(rd.out.lat) == 0 {
			res.problems = append(res.problems, fmt.Sprintf("round %d: no frame delivered", i))
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.rssKB = ru.Maxrss
	return res, nil
}

func oneRound(w workload, res *results, traced bool) (round, error) {
	runtime.GC()
	debug.FreeOSMemory()
	tc := res.tc
	var prof bytes.Buffer
	var cpu0 float64
	if traced {
		cpu0 = cpuSeconds()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return round{}, fmt.Errorf("cpu profile: %w", err)
		}
		tc.on = true
	}
	t0 := time.Now()
	b, err := w.setup(tc)
	setup := time.Since(t0)
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return round{}, fmt.Errorf("setup: %w", err)
	}
	a0 := heapAllocBytes()
	t1 := time.Now()
	b.run()
	runDur := time.Since(t1)
	a1 := heapAllocBytes()
	out := b.finish()
	if traced {
		pprof.StopCPUProfile()
		res.cpu += cpuSeconds() - cpu0
		tc.on = false
		if err := addProfile(res.self, prof.Bytes()); err != nil {
			return round{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return round{
		traced: traced, setup: setup.Seconds(), run: runDur.Seconds(),
		allocBytes: float64(a1 - a0), out: out,
	}, nil
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// pick returns f of every round whose traced flag equals traced.
func (r *results) pick(traced bool, f func(rd *round) float64) []float64 {
	var xs []float64
	for i := range r.rounds {
		if r.rounds[i].traced == traced {
			xs = append(xs, f(&r.rounds[i]))
		}
	}
	return xs
}

func opsPerSec(rd *round) float64 { return float64(rd.out.ops) / rd.run }

// endToEnd reports the metrics a user of the simulator sees. Host times
// are medians over the run's rounds; simulated figures repeat exactly in
// every round of a seed, so the last round's are reported.
func (r *results) endToEnd() map[string]metric {
	last := r.rounds[len(r.rounds)-1].out
	lat := append([]float64(nil), last.lat...)
	return map[string]metric{
		"setup_s":            {median(r.pick(false, func(rd *round) float64 { return rd.setup })), "s"},
		"ops_per_s":          {median(r.pick(false, opsPerSec)), "1/s"},
		"alloc_bytes_per_op": {median(r.pick(false, func(rd *round) float64 { return rd.allocBytes / float64(rd.out.ops) })), "B"},
		"peak_rss_mb":        {float64(r.rssKB) / 1024, "MB"},
		"sim_time_ms":        {last.makespan / 1e6, "ms"},
		"sim_p50_us":         {percentile(lat, 0.50) / 1e3, "us"},
		"sim_p99_us":         {percentile(lat, 0.99) / 1e3, "us"},
	}
}

// perLayer reports each layer's share of the work: self time per module
// and per-call timers from the traced rounds, counters from the last round
// (they repeat exactly in every round of a seed). A module's self time is
// its share of the profile samples times the CPU time the process spent in
// the traced rounds, per traced round.
func (r *results) perLayer() map[string]metric {
	last := r.rounds[len(r.rounds)-1].out
	all := float64(len(r.rounds))
	var traced float64
	for _, rd := range r.rounds {
		if rd.traced {
			traced++
		}
	}
	perCall := func(t timer) float64 {
		if t.calls == 0 {
			return 0
		}
		return float64(t.ns) / float64(t.calls)
	}
	var sampled float64
	for _, ns := range r.self {
		sampled += ns
	}
	selfS := func(bucket string) metric {
		if sampled == 0 {
			return metric{0, "s"}
		}
		return metric{r.self[bucket] / sampled * r.cpu / traced, "s"}
	}
	m := map[string]metric{}
	for _, mod := range modules {
		m[mod+".self_s"] = selfS(mod)
	}
	m["runtime.gc_s"] = selfS("runtime.gc")
	m["runtime.malloc_s"] = selfS("runtime.malloc")
	m["runtime.memclr_s"] = selfS("runtime.memclr")
	for k, v := range last.layer {
		m[k] = metric{v, layerUnits[k]}
	}
	// Later rounds reuse the buffers the first one added to the process's
	// frame pool, so the first round's misses are the ones that count.
	m["wire.pool_misses"] = metric{r.rounds[0].out.layer["wire.pool_misses"], "count"}
	events := float64(last.events)
	m["sim.events"] = metric{events, "count"}
	m["sim.events_per_s"] = metric{median(r.pick(false, func(rd *round) float64 { return events / rd.run })), "1/s"}
	m["core.dispatch_ns"] = metric{perCall(r.tc.dispatch), "ns/call"}
	m["core.primitive_ns"] = metric{perCall(r.tc.primitive), "ns/call"}
	m["core.primitive_setup_s"] = metric{float64(r.tc.primSetup.ns) / 1e9 / all, "s"}
	m["gem.new_s"] = metric{float64(r.tc.newTestbed.ns) / 1e9 / all, "s"}
	m["rnic.establish_s"] = metric{float64(r.tc.establish.ns) / 1e9 / all, "s"}
	untraced := median(r.pick(false, opsPerSec))
	m["bench.trace_overhead"] = metric{1 - median(r.pick(true, opsPerSec))/untraced, "ratio"}
	return m
}

// layerUnits gives the unit of every counter a bed reports.
var layerUnits = map[string]string{
	"wire.pool_misses":        "count",
	"switchsim.buffer_drops":  "count",
	"switchsim.peak_queue_kb": "KB",
	"rnic.region_mb":          "MB",
	"rnic.atomics":            "count",
	"rnic.server_cpu_ops":     "count",
	"rnic.read_bytes":         "B",
	"rnic.write_bytes":        "B",
	"verbs.posted":            "count",
	"verbs.retried":           "count",
	"verbs.expired":           "count",
	"core.rt.retransmits":     "count",
	"core.pb.read_retries":    "count",
	"core.pb.max_depth":       "entries",
	"core.ss.updates_per_faa": "ratio",
	"core.lt.cache_hit_ratio": "ratio",
	"core.rt.rexmit_per_faa":  "ratio",
}
