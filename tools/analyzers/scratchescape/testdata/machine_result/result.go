// Fixture: the §5f Result boundary. machine.Result.Final is the one
// sanctioned scratch-in-Result field (the parser extracts what it needs
// before it releases its Mem); every other Result field must hold memory
// that the pooled Mem's next run does not overwrite.
package machine

type State struct{ step int }

// ID names a node of a Result-scoped tree table.
type ID int32

type PrefixStack struct {
	Trees []ID
	Below *PrefixStack
}

type Result struct {
	Steps int
	Final *State
	Trace []*State
	Top   *PrefixStack
	Root  ID
	Kids  []ID
	Words []uint64
}

// level is one stack depth's node; its accumulator buffer is scratch too.
type level struct {
	p PrefixStack
}

// Mem is the in-place run's scratch: its state, per-depth nodes with their
// accumulator buffers, and the visited set's overflow words.
type Mem struct {
	state  State
	levels []*level
	words  []uint64
}

// finish uses the documented Final exception; accepted.
func finish(m *Mem) Result {
	return Result{Steps: 1, Final: &m.state}
}

// leakTrace stores the in-place state beyond the exception.
func leakTrace(m *Mem) Result {
	var r Result
	r.Steps = 1
	r.Trace = []*State{&m.state} // want "Results outlive the pooled Mem"
	return r
}

// leakNode stores a per-depth node through a composite literal field.
func leakNode(m *Mem) Result {
	return Result{
		Top: &m.levels[0].p, // want "deep-copy before it outlives the parse"
	}
}

// leakBuffer stores a node's accumulator buffer of tree IDs: pointer-free,
// but the next run appends over it.
func leakBuffer(m *Mem) Result {
	var r Result
	r.Kids = m.levels[1].p.Trees // want "Results outlive the pooled Mem"
	return r
}

// leakWords stores the visited set's overflow words.
func leakWords(m *Mem) Result {
	return Result{Words: m.words[:1]} // want "deep-copy before it outlives the parse"
}

// an ID copied out of a buffer is a value, and clean.
func rootOf(m *Mem) Result {
	return Result{Root: m.levels[0].p.Trees[0]}
}

// derived values (counts, flags) computed from scratch are clean.
func summarize(m *Mem) Result {
	return Result{Steps: len(m.levels)}
}
