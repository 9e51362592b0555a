package grammar

// rename mutates a frozen table outside the constructor file: sessions
// share the Compiled lock-free and certificates fingerprint its content.
func rename(c *Compiled, i int, name string) {
	c.termNames[i] = name // want "outside its constructor file"
}

// wipe zeroes a frozen table in place outside the constructor file.
func wipe(c *Compiled) {
	clear(c.ntNames) // want "outside its constructor file"
}

// lookup only reads the tables; accepted.
func lookup(c *Compiled, i int) string {
	return c.termNames[i]
}
