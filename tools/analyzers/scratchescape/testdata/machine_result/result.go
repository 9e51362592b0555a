// Fixture: the §5f Result boundary. machine.Result.Final is the one
// sanctioned scratch-in-Result field (the parser extracts what it needs
// before releasing its Mem); every other Result field must hold memory
// that survives the pooled arenas' Reset.
package machine

type State struct{ step int }

// ID names a node of a Result-scoped tree table.
type ID int32

type Result struct {
	Steps int
	Final *State
	Trace []*State
	Root  ID
	Kids  []ID
}

// Mem is the pooled per-parse arena bundle; states and acc are scratch.
type Mem struct {
	states []State
	acc    []ID // tree-ID accumulator spans
}

func (m *Mem) newState() *State {
	m.states = append(m.states, State{})
	return &m.states[len(m.states)-1]
}

// finish uses the documented Final exception; accepted.
func finish(m *Mem) Result {
	return Result{Steps: len(m.states), Final: m.newState()}
}

// leakTrace stores arena-backed states beyond the exception.
func leakTrace(m *Mem) Result {
	st := m.newState()
	var r Result
	r.Steps = 1
	r.Trace = []*State{st} // want "Results outlive the pooled Mem"
	return r
}

// leakLiteral leaks the same way through a composite literal field.
func leakLiteral(m *Mem) Result {
	return Result{
		Trace: []*State{m.newState()}, // want "deep-copy before it outlives the parse"
	}
}

// leakAccSpan stores a scratch accumulator span of tree IDs: pointer-free,
// but the pooled Mem overwrites the span on its next parse.
func leakAccSpan(m *Mem) Result {
	var r Result
	r.Kids = m.acc[:2] // want "Results outlive the pooled Mem"
	return r
}

// an ID copied out of the accumulator is a value, and clean.
func rootOf(m *Mem) Result {
	return Result{Root: m.acc[0]}
}

// derived values (counts, flags) computed from scratch are clean.
func summarize(m *Mem) Result {
	return Result{Steps: len(m.states)}
}
