package cvl

// The paper's rule listings, for the external lint tests (lint_test.go).
var Listings = []string{listing1, listing2, listing3, listing4}
