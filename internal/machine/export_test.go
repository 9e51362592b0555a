package machine

// ScratchCap reports the element capacity each scratch arena of m retains
// — what a pooled Mem keeps between parses. The run's tree table is not in
// the Mem: it belongs to the Result.
func (m *Mem) ScratchCap() map[string]int {
	return map[string]int{
		"states": m.states.Cap(),
		"prefix": m.prefix.Cap(),
		"suffix": m.suffix.Cap(),
		"syms":   m.syms.Cap(),
		"acc":    m.acc.Cap(),
		"words":  m.words.Cap(),
	}
}
