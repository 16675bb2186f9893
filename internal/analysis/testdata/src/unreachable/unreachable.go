package unreachable

// Used is called from the caller package's non-test file.
func Used() int { return helper() + Local() }

// Local is called only from a non-test file of its own package.
func Local() int { return 1 }

// Unused is referenced from nowhere.
func Unused() int { return 2 } // want `Unused is exported but no non-test file references it`

// OnlyTest is referenced only from a _test.go file.
func OnlyTest() int { return 3 } // want `OnlyTest is exported but no non-test file references it`

// Recursive is referenced only from its own body.
func Recursive(n int) int { // want `Recursive is exported but no non-test file references it`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Kept is kept on purpose, and says why.
//
//distlint:unreachable-ok test helper: the fixture's own tests
func Kept() int { return 4 }

// Bare carries the directive without a reason.
//
//distlint:unreachable-ok
func Bare() int { return 5 } // want `Bare: //distlint:unreachable-ok needs a reason`

// T's exported method is out of scope, as are unexported functions.
type T struct{}

// Method is referenced from nowhere.
func (T) Method() int { return 6 }

func helper() int { return 7 }

func unused() int { return 8 }
