package analysis

import (
	"path/filepath"
	"regexp"
	"testing"

	"lama/internal/obs"
)

// The fixture harness mirrors x/tools analysistest: each directory under
// testdata/src is one package; comments of the form
//
//	code // want `regex` `regex`
//
// declare the diagnostics expected on that line, and the test fails on
// any unexpected diagnostic or unmatched expectation.

// fixtureLoader builds a loader that has gathered export data for the
// packages fixtures import.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l := NewLoader(filepath.Join("..", ".."))
	if err := l.Gather("lama/internal/obs", "lama/internal/cluster", "lama/internal/hw",
		"fmt", "sort", "time", "math/rand", "os", "errors", "context",
		"sync", "sync/atomic", "net/http"); err != nil {
		t.Fatalf("gather export data: %v", err)
	}
	return l
}

// loadFixture loads testdata/src/<name> as one package.
func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name),
		"lama/internal/analysis/testdata/src/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

// runAnalyzer applies one analyzer to a loaded package.
func runAnalyzer(t *testing.T, a *Analyzer, pkg *Package) []Diagnostic {
	t.Helper()
	var diags []Diagnostic
	if err := a.Run(pkg.Pass(a, func(d Diagnostic) { diags = append(diags, d) })); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return diags
}

// runFinish applies one analyzer to a loaded package as the whole
// program: Run, then the Finish hook.
func runFinish(t *testing.T, a *Analyzer, pkg *Package) []Diagnostic {
	t.Helper()
	diags := runAnalyzer(t, a, pkg)
	a.Finish(func(d Diagnostic) { diags = append(diags, d) })
	return diags
}

type wantPattern struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// parseWants collects the // want expectations of a fixture package.
func parseWants(t *testing.T, pkg *Package) map[fileLine][]*wantPattern {
	t.Helper()
	wants := map[fileLine][]*wantPattern{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !regexp.MustCompile(`^// want `).MatchString(c.Text) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					key := fileLine{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &wantPattern{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture matches diagnostics against expectations.
func checkFixture(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants[fileLine{d.Pos.Filename, d.Pos.Line}] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re)
			}
		}
	}
}

// TestFixtures runs each analyzer over its golden fixture package.
func TestFixtures(t *testing.T) {
	l := fixtureLoader(t)
	cases := []struct {
		fixture  string
		analyzer *Analyzer
		run      func(*testing.T, *Analyzer, *Package) []Diagnostic
	}{
		{"mapiter", MapIter(), runAnalyzer},
		{"nodeterm", NoDeterm(), runAnalyzer},
		{"obsvocab", ObsVocab(), runAnalyzer},
		{"hotpath", HotPath(), runAnalyzer},
		{"ctxfirst", CtxFirst(), runAnalyzer},
		{"snapfrozen", SnapFrozen(), runAnalyzer},
		{"lockcheck", LockCheck(), runAnalyzer},
		{"golifecycle", GoLifecycle(), runAnalyzer},
		{"atomicmix", AtomicMix(), runAnalyzer},
		{"deadcode", DeadCode(), runFinish},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			pkg := loadFixture(t, l, c.fixture)
			checkFixture(t, pkg, c.run(t, c.analyzer, pkg))
		})
	}
}

// TestDeadCodeRecordsMarkers checks that a reasoned //lama:api marker is
// surfaced as a suppression with its reason.
func TestDeadCodeRecordsMarkers(t *testing.T) {
	a := DeadCode()
	pkg := loadFixture(t, fixtureLoader(t), "deadcode")
	pass := pkg.Pass(a, func(Diagnostic) {})
	var sups []Suppression
	pass.ReportSuppression = func(s Suppression) { sups = append(sups, s) }
	if err := a.Run(pass); err != nil {
		t.Fatal(err)
	}
	if len(sups) != 1 || sups[0].Kind != AnnotAPI || sups[0].Reason != "a separate module's client calls it" {
		t.Fatalf("suppressions = %+v, want the one reasoned //lama:api marker", sups)
	}
}

// TestDeterministicPackageGate runs mapiter and nodeterm over a fixture
// full of flaggable shapes whose package name is outside the
// deterministic set; both must stay silent.
func TestDeterministicPackageGate(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "nondetpkg")
	for _, a := range []*Analyzer{MapIter(), NoDeterm()} {
		if diags := runAnalyzer(t, a, pkg); len(diags) != 0 {
			t.Errorf("%s flagged a non-deterministic package: %v", a.Name, diags)
		}
	}
}

// TestObsVocabDeadEntries exercises the Finish hook: entries the analyzed
// packages emitted are live, everything else in the canonical table is
// reported dead.
func TestObsVocabDeadEntries(t *testing.T) {
	l := fixtureLoader(t)
	a := ObsVocab()
	runAnalyzer(t, a, loadFixture(t, l, "obsvocab"))
	var dead []Diagnostic
	a.Finish(func(d Diagnostic) { dead = append(dead, d) })

	reported := map[string]bool{}
	for _, d := range dead {
		if !regexp.MustCompile(`emitted nowhere`).MatchString(d.Message) {
			t.Errorf("unexpected Finish diagnostic: %s", d)
		}
		reported[d.Message] = true
	}
	has := func(src, name string) bool {
		for msg := range reported {
			if regexp.MustCompile(regexp.QuoteMeta("(" + src + ", " + name + ")")).MatchString(msg) {
				return true
			}
		}
		return false
	}
	// The fixture emits these three; they must not be reported dead.
	for _, e := range []obs.VocabEntry{
		{Source: obs.SrcMap, Name: obs.EvDone},
		{Source: obs.SrcMap, Name: obs.EvStall},
		{Source: obs.SrcSweep, Name: obs.EvJob},
	} {
		if has(e.Source, e.Name) {
			t.Errorf("entry (%s, %s) emitted by the fixture but reported dead", e.Source, e.Name)
		}
	}
	// The fixture does not emit this one; it must be reported dead.
	if !has(obs.SrcSweep, obs.EvStart) {
		t.Errorf("entry (%s, %s) not emitted by the fixture but not reported dead", obs.SrcSweep, obs.EvStart)
	}
	if len(dead) != len(obs.Vocabulary())-3 {
		t.Errorf("dead entries = %d, want %d", len(dead), len(obs.Vocabulary())-3)
	}
}

// TestRepositoryClean is the acceptance gate: the full suite over the
// whole module reports nothing. Every real finding has been fixed or
// carries a reasoned annotation; this test keeps it that way.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	diags, sups, err := RunPackages(filepath.Join("..", ".."), []string{"./..."}, Suite(), true)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	for _, s := range sups {
		if s.Reason == "" {
			t.Errorf("%s: %s: reasonless //lama:%s suppression recorded", s.Pos, s.Analyzer, s.Kind)
		}
	}
}
