package lexer_test

import (
	"io"
	"strings"
	"testing"

	"costar/internal/languages/jsonlang"
)

// countingReader counts the Read calls a scanner makes; each Read fills as
// much of the buffer as the input has left.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestScannerRefillIsLinear drains the JSON lexer's pull over a 1 MiB
// document that is one string token. Each refill asks for as many bytes as
// the unconsumed tail holds, so the window doubles and the token takes
// about log2(1 MiB / 4 KiB) refills: 10 reads, where fixed 4 KiB reads
// took 257 and copied the growing tail at each.
func TestScannerRefillIsLinear(t *testing.T) {
	const size = 1 << 20
	doc := `"` + strings.Repeat("a", size-2) + `"`
	r := &countingReader{r: strings.NewReader(doc)}
	pull := jsonlang.Lexer().Pull(r)
	tok, ok, err := pull()
	if err != nil || !ok || len(tok.Literal) != size {
		t.Fatalf("first token: %d bytes, ok %v, err %v; want the %d-byte string", len(tok.Literal), ok, err, size)
	}
	if _, ok, err := pull(); ok || err != nil {
		t.Fatalf("after the string: ok %v, err %v; want the end of input", ok, err)
	}
	// 4 KiB, then 4, 8, …, 512 KiB more: 9 reads fill the token, and one
	// more reports the end of input.
	if r.reads > 12 {
		t.Fatalf("lexing one %d-byte token took %d reads; want about log2(%d/4096)", size, r.reads, size)
	}
	t.Logf("%d reads", r.reads)
}
