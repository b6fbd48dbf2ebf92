// Command lamavet runs the repository's static-analysis suite (see
// internal/analysis): mapiter, nodeterm, obsvocab, hotpath, ctxfirst,
// the lamavet/3 concurrency set — snapfrozen, lockcheck, golifecycle,
// atomicmix — and lamavet/4's deadcode.
//
// Standalone, the usual way:
//
//	go run ./cmd/lamavet ./...
//
// exits 0 when the module is clean, 1 when there are findings (printed
// one per line as file:line:col: analyzer: message), 2 on a load error.
// Whole-module checks (obsvocab's dead-vocabulary-entry detection,
// deadcode) run only when the ./... pattern is among the arguments,
// since they are meaningless on a slice of the module.
//
// With -json, the report is a machine-readable object:
//
//	{"version": "lamavet/4",
//	 "findings":     [{"analyzer", "file", "line", "col", "message"}, ...],
//	 "suppressions": [{"analyzer", "file", "line", "col", "kind", "reason"}, ...]}
//
// so CI can surface findings as annotations and audit the accepted
// //lama:*-ok and //lama:api exemptions without grepping the tree. The
// exit code is the same as in plain mode.
//
// The binary also speaks the go vet -vettool protocol:
//
//	go build -o /tmp/lamavet ./cmd/lamavet
//	go vet -vettool=/tmp/lamavet ./...
//
// In that mode the go command invokes it once per package with a *.cfg
// JSON file describing sources and export data, and expects a -V=full
// version handshake; findings exit 2, vet's convention. Per-package
// invocation means whole-module checks stay off under vet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"lama/internal/analysis"
	"lama/internal/obs"
)

func main() {
	// `go vet` probes the tool's identity and flag set before using it.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "-V":
			fmt.Printf("lamavet version %s\n", analysis.Version)
			return
		case "-version", "--version":
			obs.PrintVersion(os.Stdout, "lamavet")
			return
		case "-flags":
			// No tool-specific analyzer flags; the go command wants the
			// (empty) set as JSON.
			fmt.Println("[]")
			return
		}
	}
	// `go vet` hands over one package as a trailing config file.
	if n := len(os.Args); n > 1 && strings.HasSuffix(os.Args[n-1], ".cfg") {
		os.Exit(vetMode(os.Args[n-1]))
	}
	os.Exit(standalone())
}

// standalone analyzes the packages named by the command line's patterns.
func standalone() int {
	fs := flag.NewFlagSet("lamavet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print diagnostics as a JSON array")
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	whole := false
	for _, p := range patterns {
		if p == "./..." {
			whole = true
		}
	}
	diags, sups, err := analysis.RunPackages("", patterns, analysis.Suite(), whole)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamavet: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport(diags, sups)); err != nil {
			fmt.Fprintf(os.Stderr, "lamavet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "lamavet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonSuppression is one honored //lama:*-ok exemption in -json output.
type jsonSuppression struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Kind     string `json:"kind"`
	Reason   string `json:"reason"`
}

// jsonReport shapes the -json document. Slices are always present (never
// null) so consumers can index without nil checks.
func jsonReport(diags []analysis.Diagnostic, sups []analysis.Suppression) map[string]any {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	suppressions := make([]jsonSuppression, 0, len(sups))
	for _, s := range sups {
		suppressions = append(suppressions, jsonSuppression{
			Analyzer: s.Analyzer,
			File:     s.Pos.Filename,
			Line:     s.Pos.Line,
			Col:      s.Pos.Column,
			Kind:     s.Kind,
			Reason:   s.Reason,
		})
	}
	return map[string]any{
		"version":      analysis.Version,
		"findings":     findings,
		"suppressions": suppressions,
	}
}

// vetConfig is the subset of the go command's vet config lamavet reads.
type vetConfig struct {
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// vetMode analyzes the single package described by a vet config file.
func vetMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamavet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lamavet: parse %s: %v\n", cfgPath, err)
		return 1
	}
	// lamavet keeps no cross-package facts, but vet requires the output
	// file to exist.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "lamavet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Resolve source import paths to export-data files through the
	// config's vendor/canonical mapping.
	exports := make(map[string]string, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for src, canonical := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canonical]; ok {
			exports[src] = file
		}
	}
	pkg, err := analysis.CheckFiles(cfg.ImportPath, cfg.GoFiles, exports)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lamavet: %v\n", err)
		return 1
	}
	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	for _, a := range analysis.Suite() {
		if err := a.Run(pkg.Pass(a, report)); err != nil {
			fmt.Fprintf(os.Stderr, "lamavet: %s: %v\n", a.Name, err)
			return 1
		}
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
