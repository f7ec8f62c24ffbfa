// Command tracegen generates synthetic datacenter traces and inspects their
// structure (spatial skew, temporal locality) — the statistics the paper's
// evaluation relies on when explaining the algorithms' relative behaviour.
//
// Usage:
//
//	tracegen -workload facebook-hadoop -racks 100 -requests 185000 \
//	         -seed 1 -format csv -out hadoop.csv
//	tracegen -workload uniform -requests 100000000 -stream -out huge.csv
//	tracegen -analyze hadoop.csv
//
// -workload takes every workload family the scenario grid registers
// (`experiments grid -list` prints them), and -analyze reads either
// trace format.
//
// With -stream the trace is drained from its resumable generator chunk by
// chunk straight into the output file — memory stays O(1) however many
// requests are written, so traces far larger than RAM are fine. The bytes
// written are identical to the materialized path for the same parameters
// (the stream contract); the trade-off is that the structure statistics,
// which need the whole trace in memory, are skipped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"obm/internal/sim"
	"obm/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "facebook-database", "workload family: "+strings.Join(sim.Families(), ", "))
		racks    = flag.Int("racks", 100, "number of racks")
		requests = flag.Int("requests", 100000, "number of requests")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		format   = flag.String("format", "csv", "output format: csv or bin")
		out      = flag.String("out", "", "output file ('' = stdout, csv only)")
		stream   = flag.Bool("stream", false, "stream the trace to the output chunk by chunk (O(1) memory, skips statistics)")
		analyze  = flag.String("analyze", "", "analyze an existing trace file (CSV or binary) instead of generating")
	)
	flag.Parse()

	if *analyze != "" {
		tr, err := trace.ReadFile(*analyze)
		if err != nil {
			fatal(err)
		}
		printStats(tr)
		return
	}

	st, err := sim.ScenarioSpec{Family: *workload, Racks: *racks, Requests: *requests, Seed: *seed}.NewStream()
	if err != nil {
		fatal(err)
	}
	if *stream {
		fmt.Fprintf(os.Stderr, "trace %q: %d racks, %d requests (streamed)\n",
			st.Name(), st.NumRacks(), st.Len())
		if err := writeTo(*format, *out, func(w io.Writer) error {
			if *format == "bin" {
				return trace.WriteBinaryStream(w, st)
			}
			return trace.WriteCSVStream(w, st)
		}); err != nil {
			fatal(err)
		}
		return
	}

	tr := trace.Collect(st)
	printStats(tr)
	if err := writeTo(*format, *out, func(w io.Writer) error {
		if *format == "bin" {
			return trace.WriteBinary(w, tr)
		}
		return trace.WriteCSV(w, tr)
	}); err != nil {
		fatal(err)
	}
}

// writeTo resolves the -format/-out flags into a writer and runs write
// against it. A failed Close of the output file is an error too, so a
// short write never reads as success.
func writeTo(format, out string, write func(io.Writer) error) error {
	if format != "csv" && format != "bin" {
		return fmt.Errorf("unknown format %q", format)
	}
	if out == "" {
		if format == "bin" {
			return fmt.Errorf("binary format requires -out")
		}
		return write(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}

func printStats(tr *trace.Trace) {
	c := trace.Analyze(tr)
	fmt.Fprintf(os.Stderr, "trace %q: %d racks, %d requests\n", tr.Name, tr.NumRacks, tr.Len())
	fmt.Fprintf(os.Stderr, "  unique pairs:    %d\n", c.UniquePairs)
	fmt.Fprintf(os.Stderr, "  pair entropy:    %.2f bits\n", c.PairEntropy)
	fmt.Fprintf(os.Stderr, "  pair Gini:       %.3f (spatial skew)\n", c.PairGini)
	fmt.Fprintf(os.Stderr, "  top-10 share:    %.1f%%\n", 100*c.Top10Share)
	fmt.Fprintf(os.Stderr, "  repeat ratio:    %.3f\n", c.RepeatRatio)
	fmt.Fprintf(os.Stderr, "  temporal score:  %.3f (0 = i.i.d.)\n", c.TemporalScore)
	fmt.Fprintf(os.Stderr, "  working set/1k:  %.0f pairs\n", c.WorkingSet1k)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
