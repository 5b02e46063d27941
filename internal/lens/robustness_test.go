package lens

import (
	"math/rand"
	"testing"
)

// TestLensesNoPanicOnGarbage feeds every registered lens random bytes and
// mutated fragments of real configs; lenses must return a tree, a table,
// or an error — never panic.
func TestLensesNoPanicOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	fragments := []string{
		sampleNginx, sampleApache, sampleMyCnf, sampleSSHD, sampleSysctl,
		sampleHadoop, sampleFstab, samplePasswd, sampleAudit,
		"{\"k\": [1,", "<configuration><property>", "install cramfs",
	}
	alphabet := []byte("abcdefgh {};=:#<>/\\\"'\n\t-.*!$()[]0123456789")
	reg := Default()
	var lenses []Lens
	seen := map[string]bool{}
	for _, e := range reg.entries {
		if !seen[e.lens.Name()] {
			seen[e.lens.Name()] = true
			lenses = append(lenses, e.lens)
		}
	}
	for i := 0; i < 2000; i++ {
		var input []byte
		if i%2 == 0 {
			frag := fragments[r.Intn(len(fragments))]
			start := r.Intn(len(frag))
			end := start + r.Intn(len(frag)-start)
			input = []byte(frag[start:end])
			for j := 0; j < r.Intn(4); j++ {
				if len(input) == 0 {
					break
				}
				input[r.Intn(len(input))] = alphabet[r.Intn(len(alphabet))]
			}
		} else {
			input = make([]byte, r.Intn(200))
			for j := range input {
				input[j] = alphabet[r.Intn(len(alphabet))]
			}
		}
		l := lenses[r.Intn(len(lenses))]
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("lens %s panicked on %q: %v", l.Name(), input, p)
				}
			}()
			_, _ = l.Parse("fuzz", input)
		}()
	}
}
