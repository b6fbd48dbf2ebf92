package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLIFlags is the observability flag set shared by every command:
// -trace-out, -metrics-out, -listen, and -v mean the same thing in
// lamamap, lamasim, lamabench, and topogen.
type CLIFlags struct {
	// TraceOut is the JSONL structured-event destination ("" = off,
	// "-" = stderr).
	TraceOut string
	// MetricsOut is the runreport/v1 destination ("" = off, "-" = stdout).
	MetricsOut string
	// Listen is the host:port the live telemetry server binds ("" = off;
	// port 0 picks a free port, printed to stderr).
	Listen string
	// Verbose additionally renders every event human-readably on stderr.
	Verbose bool
}

// RegisterVersionFlag installs the shared -version flag on a FlagSet.
// After parsing, a CLI checks the returned bool and calls PrintVersion —
// every command reports its provenance identically instead of hand-rolling
// its own printout.
func RegisterVersionFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print build provenance (Go version, git revision, CPUs) and exit")
}

// PrintVersion writes the running binary's build provenance — the same
// BuildInfo the lama_build_info metric carries — as one human-readable
// line.
func PrintVersion(w io.Writer, tool string) {
	b := CurrentBuildInfo()
	rev := b.GitRevision
	if rev == "" {
		rev = "unknown"
	}
	fmt.Fprintf(w, "%s %s (rev %s, %d CPUs)\n", tool, b.GoVersion, rev, b.NumCPU)
}

// RegisterFlags installs the shared observability flags on a FlagSet.
func RegisterFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write structured JSONL events to this file (- for stderr)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write a runreport/v1 JSON document (config, phases, metrics) to this file (- for stdout)")
	fs.StringVar(&f.Listen, "listen", "", "serve live telemetry (/metrics, /events, /debug/pprof) on this host:port while the run executes")
	fs.BoolVar(&f.Verbose, "v", false, "print human-readable events to stderr")
	return f
}

// Enabled reports that any observability output was requested.
func (f *CLIFlags) Enabled() bool {
	return f != nil && (f.TraceOut != "" || f.MetricsOut != "" || f.Listen != "" || f.Verbose)
}

// Observer builds the observer the flags describe, or nil (zero cost) when
// nothing was requested. With -listen set it also starts the live
// telemetry server (announced on stderr) backed by a bounded event ring
// and enables pprof phase/policy labels, so profiles pulled from
// /debug/pprof attribute samples to mapping phases. The returned closer
// stops the server, flushes the sinks, and closes every opened file; it
// must run before process exit.
func (f *CLIFlags) Observer(stderr io.Writer) (*Observer, func() error, error) {
	if !f.Enabled() {
		return nil, func() error { return nil }, nil
	}
	o := &Observer{}
	var files []*os.File
	var sinks []Sink
	if f.TraceOut != "" {
		w := stderr
		if f.TraceOut != "-" {
			file, err := os.Create(f.TraceOut)
			if err != nil {
				return nil, nil, fmt.Errorf("obs: -trace-out: %v", err)
			}
			files = append(files, file)
			w = file
		}
		sinks = append(sinks, NewJSONLSink(w))
	}
	if f.Verbose {
		sinks = append(sinks, NewTextSink(stderr))
	}
	var server *Server
	switch {
	case f.Listen != "":
		server = NewLiveServer("")
		o.Metrics, o.Phases = server.Registry, NewPhaseTimer()
		o.Phases.EnablePprofLabels()
		sinks = append(sinks, server.Ring)
		addr, err := server.Start(f.Listen)
		if err != nil {
			for _, file := range files {
				file.Close() // best effort: unwinding a failed setup
			}
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "obs: serving telemetry on http://%s\n", addr)
	case f.MetricsOut != "":
		o.Metrics, o.Phases = NewRegistry(), NewPhaseTimer()
		RegisterBuildInfo(o.Metrics)
	}
	switch len(sinks) {
	case 0:
	case 1:
		o.Sink = sinks[0]
	default:
		o.Sink = NewMultiSink(sinks...)
	}
	closer := func() error {
		if server != nil {
			server.Close() // best effort: drain telemetry requests before the sinks close
		}
		err := o.Close()
		for _, file := range files {
			if cerr := file.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	return o, closer, nil
}

// WriteReport writes the run report to -metrics-out (no-op when the flag
// is unset).
func (f *CLIFlags) WriteReport(rep *RunReport) error {
	if f == nil || f.MetricsOut == "" {
		return nil
	}
	return rep.WriteFile(f.MetricsOut)
}
