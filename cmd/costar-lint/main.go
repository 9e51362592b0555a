// Command costar-lint bundles the repo's custom static analyzers into one
// binary that runs over package directories and prints its findings:
//
//	costar-lint ./...              # every package under the current directory
//	costar-lint ./internal/parser  # one package directory
//
// Syntactic table guards: immutablecompiled (no writes to compiled
// grammar / analysis tables outside their constructors), cowedges (no
// direct mutation of shared DFA edge maps outside the copy-on-write
// path), diagliterals (no composite literals of pre-diag error types
// outside their home packages).
//
// Typed contract checkers (DESIGN.md §5i): scratchescape (pooled scratch
// never escapes into Results or the shared DFA cache uncopied),
// windowalias (zero-copy input windows never stored outside their home
// packages uncloned), governortick (input-proportional loops tick the
// governor on every path), lockorder (COW publication and stats accesses
// follow the mutex discipline).
//
// It exits 2 when any finding is printed. The one way to accept a finding
// is a justified annotation on its line or the line above:
// //costar:allow <analyzer> -- <reason>. `make lint` builds the binary and
// runs it over the repo.
package main

import (
	"costar/tools/analyzers/analyzerkit"
	"costar/tools/analyzers/registry"
)

func main() {
	analyzerkit.Main(registry.All()...)
}
