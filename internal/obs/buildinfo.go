package obs

import (
	"runtime"
	"runtime/debug"
	"strconv"
)

// BuildInfo identifies the binary and host behind a telemetry surface:
// the toolchain that built it, the vcs revision stamped into the build
// (empty for test binaries and plain `go run` outside a checkout), and
// the host's CPU count. The /metrics endpoint and every -version line
// identify their origin from it.
type BuildInfo struct {
	GoVersion   string
	GitRevision string
	NumCPU      int
}

// CurrentBuildInfo reads the running binary's build provenance.
func CurrentBuildInfo() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				b.GitRevision = s.Value
			}
		}
	}
	return b
}

// RegisterBuildInfo publishes the running binary's provenance as the
// lama_build_info info-style gauge (constant value 1, provenance as
// labels) so a scrape of /metrics identifies the binary serving it.
// Registration is idempotent; a nil registry is a no-op.
func RegisterBuildInfo(r *Registry) {
	b := CurrentBuildInfo()
	r.SetInfo("lama_build_info", map[string]string{
		"goVersion":   b.GoVersion,
		"gitRevision": b.GitRevision,
		"numCPU":      strconv.Itoa(b.NumCPU),
	})
}
