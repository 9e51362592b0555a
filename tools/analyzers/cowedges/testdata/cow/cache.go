// Fixture: cache.go holds the legitimate COW sequence — copy the map,
// update the copy, publish it with a single Store — and is the only file
// allowed to call the publishing mutators.
package prediction

type dfaState struct {
	edges atomicMap
}

type atomicMap struct{ p *map[int]*dfaState }

func (m *atomicMap) Load() *map[int]*dfaState   { return m.p }
func (m *atomicMap) Store(v *map[int]*dfaState) { m.p = v }

func setEdge(st *dfaState, k int, v *dfaState) {
	old := *st.edges.Load()
	next := make(map[int]*dfaState, len(old)+1)
	for t, s := range old {
		next[t] = s
	}
	next[k] = v
	st.edges.Store(&next)
}
