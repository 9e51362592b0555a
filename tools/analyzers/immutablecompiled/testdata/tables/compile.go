// Fixture: compile.go is the sanctioned constructor file — table writes
// here are the construction path and are accepted.
package grammar

type Compiled struct {
	termNames []string
	ntNames   []string
}

func compile(terms []string) *Compiled {
	c := &Compiled{}
	c.termNames = append(c.termNames, terms...)
	c.ntNames = []string{"S"}
	return c
}

// recompile refills a table in the constructor file, where clearing it is
// part of construction; accepted.
func recompile(c *Compiled, terms []string) {
	clear(c.termNames)
	c.termNames = append(c.termNames[:0], terms...)
}
