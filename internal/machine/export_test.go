package machine

// ScratchCap reports the element capacity each scratch arena of m retains
// — what a pooled Mem keeps between parses. The tree arena is excluded: it
// belongs to the Result, not the Mem.
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
