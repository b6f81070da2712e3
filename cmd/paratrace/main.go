// Command paratrace runs one experiment and writes its trace as a
// Paraver-style .prv file (or an ASCII timeline) to stdout or a file —
// the role PARAVER's trace collection plays in the paper.
//
// When writing .prv to a file, the trace is streamed: records go to disk
// as intervals close (trace.PRVSink), so nothing is retained in memory and
// arbitrarily long runs can be traced. ASCII rendering and stdout output
// need the full history and use the in-memory recorder.
//
// Usage:
//
//	paratrace -workload metbench -mode baseline -o trace.prv
//	paratrace -workload btmz -mode uniform -ascii -width 120
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcsched/internal/experiments"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

func main() {
	wl := flag.String("workload", "metbench", "workload name")
	modeName := flag.String("mode", "baseline", "baseline|static|uniform|adaptive|hybrid|policy-only")
	seed := flag.Uint64("seed", 42, "simulation seed")
	out := flag.String("o", "", "output file (default stdout)")
	ascii := flag.Bool("ascii", false, "ASCII timeline instead of .prv")
	byCPU := flag.Bool("bycpu", false, "machine-centric view: one row per CPU (ASCII mode)")
	width := flag.Int("width", 100, "timeline columns (ASCII mode)")
	from := flag.Float64("from", 0, "window start, seconds (ASCII mode)")
	to := flag.Float64("to", 0, "window end, seconds (ASCII mode; 0 = full)")
	flag.Parse()

	if err := (experiments.Config{Workload: *wl}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mode, err := experiments.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if !*ascii && !*byCPU && *out != "" {
		// Stream the .prv straight to the output file.
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sink := trace.NewPRVSink(f)
		experiments.Run(experiments.Config{
			Workload: *wl, Mode: mode, Seed: *seed, Trace: true, TraceSink: sink,
		})
		if err := sink.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		size := int64(-1)
		if info, err := f.Stat(); err == nil {
			size = info.Size()
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, streamed)\n", *out, size)
		return
	}

	r := experiments.Run(experiments.Config{
		Workload: *wl, Mode: mode, Seed: *seed, Trace: true,
	})
	var body string
	if *ascii || *byCPU {
		opt := trace.RenderOptions{
			Width: *width,
			Prios: mode.UsesHPCClass(),
			From:  sim.Time(*from * float64(sim.Second)),
			To:    sim.Time(*to * float64(sim.Second)),
		}
		rendered := r.Recorder.Render(opt)
		if *byCPU {
			rendered = r.Recorder.RenderByCPU(opt)
		}
		body = fmt.Sprintf("%s / %s — exec %.2fs\n%s",
			*wl, mode, r.ExecTime.Seconds(), rendered)
	} else {
		body = r.Recorder.ExportPRV()
	}
	if *out == "" {
		fmt.Print(body)
		return
	}
	if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(body))
}
