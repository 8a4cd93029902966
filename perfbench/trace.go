package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"khazana/internal/telemetry"
)

// span is one recorded interval of the benchmark's own tracer: an op
// (parent 0) or a public call the op made into one layer of the program.
// All spans of one op share its trace ID.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"span"`
	Parent uint32 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one load goroutine's spans in memory. A nil recorder, or
// one switched off, records nothing: untraced ops pay one branch per call.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	trace uint64
	// op is the open op span's handle (see begin).
	op int
}

func newRecorder(epoch time.Time, traceBase uint64, capacity int) *recorder {
	return &recorder{epoch: epoch, trace: traceBase, spans: make([]span, 0, capacity)}
}

// beginOp opens the span of one op.
func (r *recorder) beginOp(name string) {
	if r == nil || !r.on {
		return
	}
	r.trace++
	r.op = r.begin("bench", name)
}

// endOp closes the span opened by beginOp.
func (r *recorder) endOp() {
	if r == nil || !r.on {
		return
	}
	r.end(r.op)
	r.op = 0
}

// context returns ctx carrying the open op's span context, so that the
// program's handlers record their spans under the op's trace; ctx itself
// when off.
func (r *recorder) context(ctx context.Context) context.Context {
	if r == nil || !r.on || r.op == 0 {
		return ctx
	}
	return telemetry.ContextWith(ctx, telemetry.SpanContext{
		Trace: telemetry.TraceID(r.trace),
		Span:  telemetry.SpanID(r.spans[r.op-1].ID),
	})
}

// begin opens a child span of the current op around one public call and
// returns its handle for end: the span's index plus one, 0 when off.
func (r *recorder) begin(layer, name string) int {
	if r == nil || !r.on {
		return 0
	}
	var parent uint32
	if r.op > 0 {
		parent = r.spans[r.op-1].ID
	}
	r.spans = append(r.spans, span{
		Trace: r.trace, ID: uint32(len(r.spans) + 1), Parent: parent,
		Layer: layer, Name: name, Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(h int) {
	if h == 0 {
		return
	}
	r.spans[h-1].End = int64(time.Since(r.epoch))
}

// traceReport is what a traced run derives from its spans.
type traceReport struct {
	ops int
	// selfPerOp is each layer's self time per traced op, in µs: a span's
	// duration minus the part its children cover.
	selfPerOp map[string]float64
	// callUS holds every call span's duration in µs, by span name.
	callUS map[string][]float64
	// layerUS holds the timings of layers only some workloads exercise
	// (0 where the workload does not).
	layerUS map[string]float64
}

// analyze computes self time per layer and call durations over spans
// gathered from every recorder.
func analyze(all []span) traceReport {
	rep := traceReport{selfPerOp: map[string]float64{}, callUS: map[string][]float64{}}
	type key struct {
		trace uint64
		id    uint32
	}
	childCover := map[key]int64{}
	for _, s := range all {
		if s.Parent != 0 {
			childCover[key{s.Trace, s.Parent}] += s.End - s.Start
		}
	}
	for _, s := range all {
		d := s.End - s.Start
		self := d - childCover[key{s.Trace, s.ID}]
		rep.selfPerOp[s.Layer] += float64(self) / 1e3
		if s.Parent == 0 {
			rep.ops++
		} else {
			rep.callUS[s.Name] = append(rep.callUS[s.Name], float64(d)/1e3)
		}
	}
	if rep.ops > 0 {
		for l := range rep.selfPerOp {
			rep.selfPerOp[l] /= float64(rep.ops)
		}
	}
	return rep
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, all []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// printReport writes the traced run's human-readable summary.
func printReport(w io.Writer, rep traceReport, rpcPerOp map[string]float64, overheadPct float64) {
	fmt.Fprintf(w, "traced ops: %d\n", rep.ops)
	fmt.Fprintln(w, "self time per op, by layer (us):")
	for _, l := range sortedKeys(rep.selfPerOp) {
		fmt.Fprintf(w, "  %-12s %10.2f\n", l, rep.selfPerOp[l])
	}
	fmt.Fprintln(w, "median call time (us):")
	for _, n := range sortedKeys(rep.callUS) {
		fmt.Fprintf(w, "  %-22s %10.2f  (%d calls)\n", n, median(rep.callUS[n]), len(rep.callUS[n]))
	}
	fmt.Fprintln(w, "workload-specific layer timings (us; 0 = not exercised here):")
	for _, n := range sortedKeys(rep.layerUS) {
		fmt.Fprintf(w, "  %-30s %10.2f\n", n, rep.layerUS[n])
	}
	fmt.Fprintln(w, "handler RPCs per traced op, by message kind:")
	for _, k := range sortedKeys(rpcPerOp) {
		fmt.Fprintf(w, "  %-22s %10.3f\n", k, rpcPerOp[k])
	}
	fmt.Fprintf(w, "tracing overhead (traced vs untraced op p50): %+.2f%%\n", overheadPct)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
