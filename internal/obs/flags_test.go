package obs

import (
	"bytes"
	"flag"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

func parseFlags(t *testing.T, args ...string) *CLIFlags {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCLIFlagsObserverTraceOutError(t *testing.T) {
	f := parseFlags(t, "-trace-out", filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl"))
	if _, _, err := f.Observer(&bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-trace-out") {
		t.Fatalf("err = %v, want -trace-out failure", err)
	}
}

func TestCLIFlagsObserverListenError(t *testing.T) {
	f := parseFlags(t, "-listen", "127.0.0.1:99999")
	if _, _, err := f.Observer(&bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-listen") {
		t.Fatalf("err = %v, want -listen failure", err)
	}
}

func TestWriteReportErrorPaths(t *testing.T) {
	var nilFlags *CLIFlags
	if err := nilFlags.WriteReport(&RunReport{}); err != nil {
		t.Fatal("nil flags should be a no-op")
	}
	f := parseFlags(t, "-metrics-out", filepath.Join(t.TempDir(), "no", "such", "dir", "m.json"))
	o, closeObs, err := f.Observer(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteReport(o.Report("x", nil)); err == nil {
		t.Fatal("WriteReport to an unwritable path should fail")
	}
	if err := closeObs(); err != nil {
		t.Fatal(err)
	}
	if err := closeObs(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestObserverDoubleClose(t *testing.T) {
	o := &Observer{Sink: NewMemorySink(), Metrics: NewRegistry()}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilObs *Observer
	if err := nilObs.Close(); err != nil {
		t.Fatal("nil observer Close should be nil")
	}
}

// TestCLIFlagsListenEndToEnd drives the full -listen path: registry plus
// ring wired in, pprof labels enabled, build info registered, server
// announced, events visible over HTTP, clean shutdown.
func TestCLIFlagsListenEndToEnd(t *testing.T) {
	f := parseFlags(t, "-listen", "127.0.0.1:0")
	if !f.Enabled() {
		t.Fatal("-listen alone should enable observability")
	}
	var stderr bytes.Buffer
	o, closeObs, err := f.Observer(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	_, addr, ok := strings.Cut(stderr.String(), "obs: serving telemetry on http://")
	addr = strings.TrimSpace(addr)
	if !ok || addr == "" {
		t.Fatalf("announcement missing: %q", stderr.String())
	}
	if !o.PprofLabeled() {
		t.Fatal("-listen should enable pprof labels")
	}

	end := o.StartSpan("place")
	o.Emit(SrcMap, "done", F("np", 4))
	end()

	if code, body := get(t, "http://"+addr+"/metrics"); code != 200 ||
		!strings.Contains(body, "lama_build_info{") {
		t.Fatalf("metrics: %d %q", code, body)
	}
	if code, body := get(t, "http://"+addr+"/events?follow=0"); code != 200 ||
		!strings.Contains(body, `"event":"done"`) {
		t.Fatalf("events: %d %q", code, body)
	}
	if err := closeObs(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server alive after close")
	}
}
