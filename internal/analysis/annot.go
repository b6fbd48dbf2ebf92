package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation kinds. See the package documentation for the syntax.
const (
	AnnotHotpath  = "hotpath"
	AnnotColdpath = "coldpath"
	AnnotAllocOK  = "alloc-ok"
	AnnotNondetOK = "nondet-ok"

	// snapfrozen (lamavet/3) vocabulary: //lama:frozen marks a struct type
	// as published-immutable, //lama:mutator marks a function of the
	// defining package as part of its constructor/derivation whitelist,
	// //lama:cow <Type> marks a clone/derive/fingerprint function that must
	// reference every field of Type, and //lama:mutation-ok <reason>
	// accepts one mutation finding.
	AnnotFrozen     = "frozen"
	AnnotMutator    = "mutator"
	AnnotCow        = "cow"
	AnnotMutationOK = "mutation-ok"

	// lockcheck vocabulary: //lama:guards <mutex> on a struct field names
	// the sibling mutex that guards it, //lama:locked <reason> documents
	// that a function is only called with the relevant lock held, and
	// //lama:lock-ok <reason> accepts one locking finding.
	AnnotGuards = "guards"
	AnnotLocked = "locked"
	AnnotLockOK = "lock-ok"

	// golifecycle: //lama:join-ok <reason> accepts one fire-and-forget
	// goroutine whose join path the analyzer cannot prove.
	AnnotJoinOK = "join-ok"

	// atomicmix: //lama:atomic-ok <reason> accepts one mixed
	// atomic-and-plain field access.
	AnnotAtomicOK = "atomic-ok"

	// deadcode: //lama:api <reason> keeps an exported identifier that no
	// non-test code of the module reaches and says who uses it.
	AnnotAPI = "api"
)

// annotPrefix introduces a lamavet annotation comment (no space after
// "//", in the style of //go: directives).
const annotPrefix = "//lama:"

// Annotation is one parsed //lama: comment.
type Annotation struct {
	Kind   string
	Reason string
	File   string
	Line   int
}

// Annotations indexes every //lama: comment of a package by file and
// line, so analyzers can look up suppressions next to a finding.
type Annotations struct {
	byLine map[fileLine][]*Annotation
}

type fileLine struct {
	file string
	line int
}

// scanAnnotations collects the //lama: comments of the files.
func scanAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{byLine: map[fileLine][]*Annotation{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann := parseAnnotation(c.Text)
				if ann == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				ann.File, ann.Line = pos.Filename, pos.Line
				key := fileLine{pos.Filename, pos.Line}
				a.byLine[key] = append(a.byLine[key], ann)
			}
		}
	}
	return a
}

// parseAnnotation decodes "//lama:<kind> <reason>"; nil for non-lama
// comments. Unknown kinds are kept (analyzers report them as such when
// they appear where a known kind was expected).
func parseAnnotation(text string) *Annotation {
	if !strings.HasPrefix(text, annotPrefix) {
		return nil
	}
	body := strings.TrimPrefix(text, annotPrefix)
	kind, reason, _ := strings.Cut(body, " ")
	return &Annotation{Kind: strings.TrimSpace(kind), Reason: strings.TrimSpace(reason)}
}

// At returns the annotation of the given kind attached to pos: a comment
// on the same line (trailing) or on the line directly above.
func (a *Annotations) At(fset *token.FileSet, pos token.Pos, kind string) *Annotation {
	if a == nil || !pos.IsValid() {
		return nil
	}
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, ann := range a.byLine[fileLine{p.Filename, line}] {
			if ann.Kind == kind {
				return ann
			}
		}
	}
	return nil
}

// suppressed reports whether a finding at pos is suppressed by an
// annotation of the given kind carrying a reason. When the annotation is
// present but reasonless, the finding stands and the malformed annotation
// is additionally reported — suppressions must say why. Accepted
// suppressions are recorded through Pass.ReportSuppression so drivers
// (lamavet -json) can surface them alongside findings.
func suppressed(pass *Pass, pos token.Pos, kind string) bool {
	ann := pass.Annot.At(pass.Fset, pos, kind)
	if ann == nil {
		return false
	}
	if ann.Reason == "" {
		pass.Reportf(pos, "%s%s annotation requires a reason (\"%s%s <why this is safe>\")",
			annotPrefix, kind, annotPrefix, kind)
		return false
	}
	if pass.ReportSuppression != nil {
		pass.ReportSuppression(Suppression{
			Analyzer: pass.Analyzer.Name,
			Kind:     kind,
			Reason:   ann.Reason,
			Pos:      pass.Fset.Position(pos),
		})
	}
	return true
}

// typeAnnotation returns the annotation of the given kind attached to a
// type declaration: in the enclosing GenDecl's doc comment, the spec's own
// doc comment, or on the line of (or directly above) the spec.
func typeAnnotation(pass *Pass, decl *ast.GenDecl, spec *ast.TypeSpec, kind string) *Annotation {
	for _, doc := range []*ast.CommentGroup{decl.Doc, spec.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if ann := parseAnnotation(c.Text); ann != nil && ann.Kind == kind {
				return ann
			}
		}
	}
	return pass.Annot.At(pass.Fset, spec.Pos(), kind)
}

// funcAnnotation returns the annotation of the given kind in a function
// declaration's doc comment, or attached to its first line.
func funcAnnotation(pass *Pass, decl *ast.FuncDecl, kind string) *Annotation {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if ann := parseAnnotation(c.Text); ann != nil && ann.Kind == kind {
				return ann
			}
		}
	}
	return pass.Annot.At(pass.Fset, decl.Pos(), kind)
}

// funcAnnotations returns every annotation of the given kind attached to a
// function declaration — in its doc comment or on the declaration line
// itself. A function may carry several (a derive function that
// copy-on-writes more than one struct carries one //lama:cow per type).
// Annotations are read from the package index rather than re-parsed, so
// each physical comment yields exactly one Annotation.
func funcAnnotations(pass *Pass, decl *ast.FuncDecl, kind string) []*Annotation {
	if pass.Annot == nil {
		return nil
	}
	start := pass.Fset.Position(decl.Pos())
	first := start.Line - 1
	if decl.Doc != nil {
		first = pass.Fset.Position(decl.Doc.Pos()).Line
	}
	var anns []*Annotation
	for line := first; line <= start.Line; line++ {
		for _, ann := range pass.Annot.byLine[fileLine{start.Filename, line}] {
			if ann.Kind == kind {
				anns = append(anns, ann)
			}
		}
	}
	return anns
}
