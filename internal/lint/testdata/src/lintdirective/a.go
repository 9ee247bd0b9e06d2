// Package lintdirective exercises directive validation: bare directives and
// unknown analyzer/verb names are flagged; fully-justified directives pass.
// lintdirective reports at the directive comment itself, so the fixtures use
// the harness's `want:-1` offset form from the following line.
package lintdirective

func bareSorted(m map[string]int) int {
	n := 0
	//lint:sorted
	// want:-1 "lint:sorted requires a justification"
	for range m {
		n++
	}
	return n
}

func bareIgnore() int {
	//lint:ignore
	// want:-1 "lint:ignore requires analyzers and a justification"
	return 1
}

func missingReason() int {
	//lint:ignore durability
	// want:-1 "lint:ignore requires analyzers and a justification"
	return 2
}

func unknownAnalyzer() int {
	//lint:ignore nosuchcheck fixture: the named analyzer does not exist
	// want:-1 "unknown analyzer nosuchcheck"
	return 3
}

func unknownVerb() int {
	//lint:frobnicate whatever
	// want:-1 "unknown //lint: directive frobnicate"
	return 4
}

func justifiedSorted(m map[string]float64) float64 {
	var sum float64
	//lint:sorted fixture: a justified directive produces no finding here
	for _, v := range m {
		sum += v
	}
	return sum
}

func justifiedIgnore(a, b float64) bool {
	//lint:ignore nondetsource,maprange fixture: multiple analyzers with a reason
	return a == b
}
