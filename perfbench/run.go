package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"khazana"
	"khazana/internal/telemetry"
)

// principal is the identity every workload acts as.
const principal khazana.Principal = "bench"

// workload is one named set of generated inputs and the op that drives
// them.
type workload struct {
	name string
	// goroutines is the number of closed-loop load goroutines.
	goroutines int
	// round is the op count of one whole round; a run's op count is a
	// whole number of rounds.
	round int
	// rate is the nominal op rate, in ops/s, that sizes a run's fixed op
	// count from --seconds; the count never depends on the measured speed.
	rate float64
	// setups is how many times a run sets the workload up; setup_s is the
	// median. Cheap set-ups repeat more, so their median is steady.
	setups int
	// trials is how many of the set-ups (the last ones) run a share of the
	// ops, each on its own fresh instance; the rest are only timed.
	trials int
	setup  func(ctx context.Context, e *env) (*instance, error)
}

var workloads = []workload{
	{name: "replicated-pingpong", goroutines: 1, round: 2 * traceBlock, rate: 1000, setups: 31, trials: 16, setup: setupPingpong},
	{name: "tcp-client", goroutines: tcGoroutines, round: tcGoroutines * 2 * traceBlock, rate: 25000, setups: 41, trials: 32, setup: setupTCPClient},
	// kfs-churn's heap grows and its rate falls with every lifecycle (see
	// README, fault 2); each trial starts a fresh instance, so no instance
	// ages by more than an eighth of the run's lifecycles.
	{name: "kfs-churn", goroutines: 1, round: 2 * traceBlock, rate: 600, setups: 31, trials: 8, setup: setupKFSChurn},
	{name: "cold-scan", goroutines: 1, round: csRound, rate: 250, setups: 3, trials: 1, setup: setupColdScan},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opCount is the fixed number of ops a run of the given length attempts:
// whole rounds in every trial.
func (w workload) opCount(seconds int) int {
	unit := w.round * w.trials
	return (int(w.rate*float64(seconds))/unit + 1) * unit
}

// env is what a workload's setup receives; setup stores its model in it.
type env struct {
	seed  uint64
	dir   string
	model *model
}

// instance is one set-up workload, ready to run ops.
type instance struct {
	nodes []*khazana.Node
	// op runs op i of load goroutine g; rec is nil outside timed runs.
	op func(ctx context.Context, g, i int, rec *recorder) error
	// finish runs the end-of-run property checks (nil: none).
	finish func(ctx context.Context) error
	// transport returns the cumulative RPC and byte counts of the
	// workload's transport. With handlerRPCs set its RPC count is unused
	// and transport.rpcs_per_op is the nodes' handler spans per traced op.
	transport   func() (rpcs, bytes uint64)
	handlerRPCs bool
	// ping measures one client round trip to node 1.
	ping  func(ctx context.Context) (time.Duration, error)
	close func()
}

// checkError marks an op whose output disagreed with the model.
type checkError struct{ err error }

func (c checkError) Error() string { return "check: " + c.err.Error() }

func checked(err error) error {
	if err == nil {
		return nil
	}
	return checkError{err}
}

// reserveAllocate reserves and allocates one region on n.
func reserveAllocate(ctx context.Context, n *khazana.Node, size uint64, attrs khazana.Attrs) (khazana.Addr, error) {
	start, err := n.Reserve(ctx, size, attrs, principal)
	if err != nil {
		return khazana.Addr{}, fmt.Errorf("reserve: %w", err)
	}
	if err := n.Allocate(ctx, start, principal); err != nil {
		return khazana.Addr{}, fmt.Errorf("allocate: %w", err)
	}
	return start, nil
}

// settle waits for every node's asynchronous ring announces to drain.
func settle(nodes []*khazana.Node) {
	for _, n := range nodes {
		n.Core().RingSettle()
	}
}

// inprocPinger pings node 1 from a client attached to the cluster's
// simulated network.
func inprocPinger(c *khazana.Cluster) func(ctx context.Context) (time.Duration, error) {
	var (
		once   sync.Once
		client *khazana.Client
		err    error
	)
	return func(ctx context.Context) (time.Duration, error) {
		once.Do(func() {
			tr, aerr := c.Network.Attach(khazana.ClientID(1))
			if aerr != nil {
				err = aerr
				return
			}
			client = khazana.NewClient(tr, 1, principal)
		})
		if err != nil {
			return 0, err
		}
		return client.Ping(ctx)
	}
}

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     uint64
	seconds  int
	trace    bool
	// workDir holds the store directories and the span file.
	workDir string
	// report receives the traced run's human-readable summary.
	report io.Writer
	// corrupt, when set, alters the model after setup (checker self-test).
	corrupt func(*model)
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// errs holds the first few failures, for the log.
	errs []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	// traceBlock is the op count per load goroutine of one block of a
	// traced run (see loadRun).
	traceBlock = 32
	// pings is the number of client pings a traced run times.
	pings = 400
	// wireIters is the number of grant-batch round trips a traced run
	// times.
	wireIters = 4000
	maxErrs   = 5
)

// measurement is what the timed parts of a run leave behind.
type measurement struct {
	n         int
	setupSecs []float64
	// opsPerS, p50 and p90 hold each trial's throughput and untraced op
	// latency percentiles (µs).
	opsPerS, p50, p90 []float64
	lr                *loadRun
	// acc sums the program counters' deltas over the trials; end is the
	// last reading, for gauges.
	acc, end    layerCounters
	rpcs, bytes uint64
	// last is the last trial's instance, still up.
	last *instance
}

// measure sets the workload up w.setups times and runs the timed part on
// the last w.trials instances. The caller closes m.last.
func measure(ctx context.Context, cfg config, res *result) (*measurement, error) {
	w := cfg.workload
	m := &measurement{n: w.opCount(cfg.seconds), acc: layerCounters{}}
	m.lr = newLoadRun(w, m.n/w.trials/w.goroutines, cfg.trace)
	for k := 0; k < w.setups; k++ {
		e := env{seed: cfg.seed, dir: filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", k))}
		t0 := time.Now()
		in, err := w.setup(ctx, &e)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		m.setupSecs = append(m.setupSecs, time.Since(t0).Seconds())
		// Store directories of closed instances go with the run's work
		// directory at the end, so deleting them does not load the file
		// system during a timed part.
		if k < w.setups-w.trials {
			in.close()
			runtime.GC()
			continue
		}
		if cfg.corrupt != nil {
			cfg.corrupt(e.model)
		}

		// Every timed part starts from a collected heap.
		runtime.GC()
		before := readCounters(in.nodes)
		rpc0, bytes0 := in.transport()
		from := m.lr.mark()
		t0 = time.Now()
		m.lr.run(ctx, in)
		m.opsPerS = append(m.opsPerS, float64(m.n/w.trials)/time.Since(t0).Seconds())
		lat := m.lr.latencies(from, false)
		m.p50 = append(m.p50, percentile(lat, 0.5))
		m.p90 = append(m.p90, percentile(lat, 0.9))
		rpc1, bytes1 := in.transport()
		m.end = readCounters(in.nodes)
		for name, v := range m.end {
			m.acc[name] += v - before[name]
		}
		m.rpcs += rpc1 - rpc0
		m.bytes += bytes1 - bytes0
		if in.finish != nil {
			if err := in.finish(ctx); err != nil {
				res.Correct = false
				res.errs = append(res.errs, "end of trial: "+err.Error())
			}
		}
		// The last trial's instance stays up for the traced run's probes;
		// the others go before the next set-up, so the peak is one
		// instance's.
		if k < w.setups-1 {
			in.close()
			runtime.GC()
		} else {
			m.last = in
		}
	}
	return m, nil
}

// run executes one benchmark invocation.
func run(ctx context.Context, cfg config) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	m, err := measure(ctx, cfg, res)
	if err != nil {
		return nil, err
	}
	defer m.last.close()
	res.Attempted = m.n
	for _, err := range m.lr.errs() {
		res.Failed++
		var ce checkError
		if errors.As(err, &ce) {
			res.Correct = false
		}
		if len(res.errs) < maxErrs {
			res.errs = append(res.errs, err.Error())
		}
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if cfg.report != nil {
		fmt.Fprintf(cfg.report, "set-up: median %.4f s of %d [min %.4f, max %.4f]\n",
			median(m.setupSecs), len(m.setupSecs), slices.Min(m.setupSecs), slices.Max(m.setupSecs))
		for i := range m.opsPerS {
			fmt.Fprintf(cfg.report, "trial %d: %.1f ops/s, p50 %.1f us, p90 %.1f us\n", i, m.opsPerS[i], m.p50[i], m.p90[i])
		}
	}
	if !cfg.trace {
		// The fastest trial, with its own percentiles: slow spells of a
		// shared machine only ever slow a trial down, so the fastest trial
		// is the steadiest reading of the program's own speed.
		best := slices.Index(m.opsPerS, slices.Max(m.opsPerS))
		put("setup_s", "s", median(m.setupSecs))
		put("ops_per_s", "ops/s", m.opsPerS[best])
		put("op_p50_us", "us", m.p50[best])
		put("op_p90_us", "us", m.p90[best])
		put("peak_rss_mb", "MB", peakRSSMB())
		return res, nil
	}
	return res, perLayer(ctx, cfg, m, res, put)
}

// perLayer computes a traced run's per-layer metrics, writes its spans and
// prints its summary.
func perLayer(ctx context.Context, cfg config, m *measurement, res *result, put func(name, unit string, v float64)) error {
	lr, acc := m.lr, m.acc
	ops := float64(m.n)
	perOp := func(name string) float64 { return acc[name] / ops }
	put("core.lock_us", "us", acc.mean(telemetry.MetricLockLatency)/1e3)
	put("core.unlock_us", "us", acc.mean(telemetry.MetricReleaseLatency)/1e3)
	put("core.tree_walks_per_op", "count", perOp(telemetry.MetricLookupTreeWalks))
	put("ring.lookups_per_op", "count", perOp(telemetry.MetricRingLookups))
	put("ring.fallback_walks_per_op", "count", perOp(telemetry.MetricRingFallbackWalks))
	put("consistency.prefetch_hits_per_op", "count", perOp(telemetry.MetricPrefetchHits))
	put("consistency.prefetch_waste_per_op", "count", perOp(telemetry.MetricPrefetchWaste))
	put("replog.degraded_commits", "count", acc[telemetry.MetricReplDegradedCommits])
	put("store.mem_misses_per_op", "count", perOp(telemetry.MetricMemMisses))
	put("store.mem_pages_end", "count", m.end[telemetry.MetricMemPages])
	put("store.disk_pages_end", "count", m.end[telemetry.MetricDiskPages])
	rpcPerOp := lr.rpcPerOp()
	rpcs := float64(m.rpcs) / ops
	if m.last.handlerRPCs {
		rpcs = rpcPerOp[allKinds]
	}
	put("transport.rpcs_per_op", "count", rpcs)
	put("transport.bytes_per_op", "B", float64(m.bytes)/ops)
	for _, k := range rpcKinds {
		put("rpc."+k.metric+"_per_op", "count", rpcPerOp[k.name])
	}

	// Timings of layers only some workloads exercise read 0 on the others.
	spans := lr.spans()
	rep := analyze(spans)
	rep.layerUS = map[string]float64{
		"replog.commit_mean_us": acc.mean(telemetry.MetricReplCommitLatency) / 1e3,
	}
	for _, lc := range layerCalls {
		rep.layerUS[lc.metric] = median(rep.callUS[lc.span])
	}
	for name, us := range rep.layerUS {
		put(name, "us", us)
	}

	untracedOps := float64(lr.untracedOps())
	put("proc.allocs_per_op", "count", float64(lr.mem.Mallocs)/untracedOps)
	put("proc.alloc_bytes_per_op", "B", float64(lr.mem.TotalAlloc)/untracedOps)
	put("proc.gc_cycles_per_kop", "count", float64(lr.mem.NumGC)*1000/untracedOps)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("proc.heap_live_mb_end", "MB", float64(ms.HeapAlloc)/(1<<20))

	overhead := 100 * (percentile(lr.latencies(nil, true), 0.5)/percentile(lr.latencies(nil, false), 0.5) - 1)
	put("trace.overhead_pct", "%", overhead)

	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		d, err := m.last.ping(ctx)
		if err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		rtts = append(rtts, float64(d)/1e3)
	}
	put("transport.ping_rtt_us", "us", median(rtts))

	wireUS, wireBytes, err := grantBatchRoundTrip(cfg.seed)
	if err != nil {
		res.Correct = false
		res.errs = append(res.errs, err.Error())
	}
	put("wire.grant_batch_roundtrip_us", "us", wireUS)
	put("wire.grant_batch_alloc_bytes_per_page", "B", wireBytes)

	spanFile := filepath.Join(cfg.workDir, "..", fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}
	if cfg.report != nil {
		printReport(cfg.report, rep, rpcPerOp, overhead)
		if lr.wrapped > 0 {
			fmt.Fprintf(cfg.report, "warning: a node's span ring wrapped between %d reads; RPC counts are a lower bound\n", lr.wrapped)
		}
		fmt.Fprintf(cfg.report, "spans written to %s\n", spanFile)
	}
	return nil
}

// peakRSSMB returns this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerCalls maps the workload-specific timing metrics to the span whose
// median they report.
var layerCalls = []struct{ metric, span string }{
	{"consistency.snapshot_view_us", "Snapshot.View"},
	{"ring.cold_lookup_us", "Node.GetAttr"},
	{"kfs.create_us", "kfs.Create"},
	{"kfs.write_us", "kfs.WriteAt"},
	{"kfs.open_us", "kfs.Open"},
	{"kfs.read_us", "kfs.ReadAt"},
	{"kfs.remove_us", "kfs.Remove"},
}

// allKinds is the key under which loadRun.handled counts handler spans of
// every message kind.
const allKinds = "(all kinds)"

// rpcKinds are the handler message kinds a traced run reports per op.
var rpcKinds = []struct{ name, metric string }{
	{"Invalidate", "invalidate"},
	{"UpdateBatch", "update_batch"},
	{"PageReqBatch", "page_req_batch"},
	{"ReleaseBatch", "release_batch"},
	{"ReplAppend", "repl_append"},
}

// loadRun drives the timed part of a run: on each trial's instance,
// goroutines closed-loop load goroutines each attempt perG ops. A traced
// run splits each goroutine's ops into blocks of traceBlock and traces
// every traceEvery-th block, so the tracing overhead is measured over
// interleaved ops of the same run and at most about maxTracedOps ops keep
// spans.
type loadRun struct {
	w          workload
	inst       *instance
	perG       int
	trace      bool
	traceEvery int
	recs       []*recorder
	lat        [][]sample
	fails      [][]error
	// mem accumulates runtime allocation counters over untraced blocks.
	mem runtime.MemStats
	// handled counts program handler spans by message kind over traced
	// blocks.
	handled map[string]int
	marks   map[khazana.NodeID]telemetry.SpanID
	// wrapped counts span reads that found a node's ring had wrapped.
	wrapped int
}

type sample struct {
	us     float32
	traced bool
}

// maxTracedOps bounds the ops a traced run keeps spans for, so the span
// buffer stays a few MB on every workload.
const maxTracedOps = 4096

func newLoadRun(w workload, perG int, trace bool) *loadRun {
	lr := &loadRun{w: w, perG: perG, trace: trace,
		traceEvery: max(2, (perG*w.goroutines*w.trials+maxTracedOps-1)/maxTracedOps),
		handled:    map[string]int{}, marks: map[khazana.NodeID]telemetry.SpanID{}}
	epoch := time.Now()
	for g := 0; g < w.goroutines; g++ {
		var rec *recorder
		if trace {
			rec = newRecorder(epoch, uint64(g)<<40, 8*maxTracedOps/w.goroutines)
		}
		lr.recs = append(lr.recs, rec)
		lr.lat = append(lr.lat, make([]sample, 0, perG*w.trials))
		lr.fails = append(lr.fails, nil)
	}
	return lr
}

// run attempts perG ops per load goroutine on one instance.
func (lr *loadRun) run(ctx context.Context, inst *instance) {
	lr.inst = inst
	if !lr.trace {
		lr.block(ctx, 0, lr.perG, false)
		return
	}
	var m0, m1 runtime.MemStats
	for b := 0; b*traceBlock < lr.perG; b++ {
		traced := b%lr.traceEvery == lr.traceEvery-1
		if traced {
			lr.markSpans()
		} else {
			runtime.ReadMemStats(&m0)
		}
		lr.block(ctx, b*traceBlock, min((b+1)*traceBlock, lr.perG), traced)
		if !traced {
			runtime.ReadMemStats(&m1)
			lr.mem.Mallocs += m1.Mallocs - m0.Mallocs
			lr.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
			lr.mem.NumGC += m1.NumGC - m0.NumGC
		}
	}
}

// block runs ops [from, to) on every load goroutine and waits for them.
// A traced block with one load goroutine counts the program's handler
// spans after every op, before the nodes' span rings can wrap; with more
// goroutines it counts them once at the end, so reading the rings never
// delays the other goroutine's ops (their ops record few spans).
func (lr *loadRun) block(ctx context.Context, from, to int, traced bool) {
	perOp := traced && lr.w.goroutines == 1
	var wg sync.WaitGroup
	for g := 0; g < lr.w.goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := lr.recs[g]
			if rec != nil {
				rec.on = traced
			}
			for i := from; i < to; i++ {
				t0 := time.Now()
				rec.beginOp(lr.w.name)
				err := lr.inst.op(ctx, g, i, rec)
				rec.endOp()
				lr.lat[g] = append(lr.lat[g], sample{us: float32(time.Since(t0)) / 1e3, traced: traced})
				if err != nil {
					lr.fails[g] = append(lr.fails[g], fmt.Errorf("op %d.%d: %w", g, i, err))
				}
				if perOp {
					lr.countSpans()
				}
			}
		}(g)
	}
	wg.Wait()
	if traced && !perOp {
		lr.countSpans()
	}
}

// markSpans remembers each node's newest handler span, so countSpans
// counts only spans recorded after it.
func (lr *loadRun) markSpans() {
	for _, n := range lr.inst.nodes {
		spans := n.Core().TraceSpans()
		if len(spans) > 0 {
			lr.marks[n.ID()] = spans[len(spans)-1].Span
		}
	}
}

// countSpans counts the handler spans each node recorded since the last
// mark, by message kind, and moves the marks. A mark that has left a full
// ring means spans were lost; the summary reports how often.
func (lr *loadRun) countSpans() {
	for _, n := range lr.inst.nodes {
		spans := n.Core().TraceSpans()
		mark, ok := lr.marks[n.ID()]
		from := 0
		if ok {
			found := false
			for i := len(spans) - 1; i >= 0 && !found; i-- {
				if spans[i].Span == mark {
					from, found = i+1, true
				}
			}
			if !found && len(spans) == telemetry.DefaultTraceCapacity {
				lr.wrapped++
			}
		}
		for _, s := range spans[from:] {
			if kind, ok := strings.CutPrefix(s.Name, "handle:*wire."); ok {
				lr.handled[kind]++
				lr.handled[allKinds]++
			}
		}
		if len(spans) > 0 {
			lr.marks[n.ID()] = spans[len(spans)-1].Span
		}
	}
}

func (lr *loadRun) rpcPerOp() map[string]float64 {
	out := map[string]float64{}
	traced := float64(lr.tracedOps())
	if traced == 0 {
		return out
	}
	for k, v := range lr.handled {
		out[k] = float64(v) / traced
	}
	return out
}

func (lr *loadRun) tracedOps() int {
	n := 0
	for _, lat := range lr.lat {
		for _, s := range lat {
			if s.traced {
				n++
			}
		}
	}
	return n
}

func (lr *loadRun) untracedOps() int {
	total := 0
	for _, lat := range lr.lat {
		total += len(lat)
	}
	return total - lr.tracedOps()
}

// mark returns each load goroutine's sample count, for latencies.
func (lr *loadRun) mark() []int {
	out := make([]int, len(lr.lat))
	for g, lat := range lr.lat {
		out[g] = len(lat)
	}
	return out
}

// latencies returns the op latencies (µs) of traced or untraced ops
// recorded since a mark (nil: since the start).
func (lr *loadRun) latencies(from []int, traced bool) []float64 {
	var out []float64
	for g, lat := range lr.lat {
		if from != nil {
			lat = lat[from[g]:]
		}
		for _, s := range lat {
			if s.traced == traced {
				out = append(out, float64(s.us))
			}
		}
	}
	return out
}

func (lr *loadRun) errs() []error {
	var out []error
	for _, f := range lr.fails {
		out = append(out, f...)
	}
	return out
}

func (lr *loadRun) spans() []span {
	var out []span
	for _, r := range lr.recs {
		if r != nil {
			out = append(out, r.spans...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
