// Package immutablecompiled flags writes to the dense tables of
// grammar.Compiled, analysis.Analysis and analysis.Targets outside their
// constructor files.
//
// These types promise immutability after construction — the concurrency
// story of parser sessions (many goroutines share one Compiled, one
// Analysis and each start symbol's Targets with no locks) rests on it,
// and the certificate layer adds a
// second reason: a Certificate is bound to the grammar content at issuance,
// so a post-construction table write would silently invalidate an attached
// certificate. The fields are unexported, which already confines writes to
// the owning package; this analyzer tightens that to the constructor file,
// turning the convention into a CI-enforced invariant.
package immutablecompiled

import (
	"costar/tools/analyzers/analyzerkit"
)

// protected lists, per package, the table fields and the files allowed to
// write them. Field names are matched syntactically (the types are not
// resolved); each listed name is used as a field of exactly one struct in
// its package, which the analyzer's own tests pin down.
var protected = map[string]struct {
	fields map[string]bool
	allow  map[string]bool
}{
	"grammar": {
		fields: set("termNames", "ntNames", "termIDs", "ntIDs", "numDefined",
			"prodLhs", "prodRhs", "ntProds"),
		allow: set("compile.go"),
	},
	"analysis": {
		fields: set("nullableID", "firstRow", "followRow", "rowWords", "eofCol",
			"byNT", "canFinish"),
		// analysis.go holds New (the fixpoints), targets.go NewTargetsFor
		// (the return targets).
		allow: set("analysis.go", "targets.go"),
	},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Analyzer is the exported instance for multichecker bundling.
var Analyzer = &analyzerkit.Analyzer{
	Name: "immutablecompiled",
	Doc: "flag writes to grammar.Compiled / analysis.Analysis / analysis.Targets tables outside their constructor files\n\n" +
		"The compiled grammar and its analyses are shared across goroutines without locks\n" +
		"and carry content-fingerprinted certificates; both depend on the tables being\n" +
		"frozen once construction finishes.",
	Run: run,
}

func run(pass *analyzerkit.Pass) error {
	spec, ok := protected[pass.PkgName]
	if !ok {
		return nil
	}
	for _, f := range pass.Files {
		for _, w := range analyzerkit.Writes(f) {
			for _, sel := range analyzerkit.SelectorsIn(w.Target) {
				if !spec.fields[sel.Sel.Name] {
					continue
				}
				if spec.allow[pass.Filename(sel.Sel.Pos())] {
					continue
				}
				pass.Reportf(sel.Sel.Pos(),
					"write to %s outside its constructor file: the table is immutable after construction (sessions share it lock-free and certificates fingerprint it)",
					sel.Sel.Name)
			}
		}
	}
	return nil
}
