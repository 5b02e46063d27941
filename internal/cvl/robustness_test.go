package cvl

import (
	"math/rand"
	"testing"
)

// TestCompositeParserNoPanic throws random operator soup at the composite
// expression parser.
func TestCompositeParserNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	tokens := []string{
		"a.b", "x.y.z", "mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE",
		"&&", "||", "!", "(", ")", "==", "!=", `"lit"`, "'l'", "bare",
		".", "..", "[", "]", "=", " ",
	}
	for i := 0; i < 3000; i++ {
		var src string
		for j := 0; j < 1+r.Intn(10); j++ {
			src += tokens[r.Intn(len(tokens))]
			if r.Intn(2) == 0 {
				src += " "
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %q: %v", src, p)
				}
			}()
			_, _ = ParseComposite(src)
		}()
	}
}
