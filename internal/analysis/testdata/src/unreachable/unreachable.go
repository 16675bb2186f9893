package unreachable

import "fmt"

// Used is called from the caller package's non-test file.
func Used() int { return helper() + Local() }

// Local is called only from a non-test file of its own package.
func Local() int { return 1 }

// Unused is referenced from nowhere.
func Unused() int { return 2 } // want `Unused is exported but no non-test file references it`

// OnlyTest is referenced only from a _test.go file.
func OnlyTest() int { return 3 } // want `OnlyTest is exported but no non-test file references it`

// Exampled is referenced only from an Example in a _test.go file: an
// Example is a root.
func Exampled() int { return 9 }

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

// Sizer is a module interface: T.Size matches its method.
type Sizer interface{ Size() int }

// Taker is a generic interface: T.Take matches its method with T = int.
type Taker[E any] interface{ Take() E }

// T's exported methods are checked like functions; unexported functions
// are out of scope.
type T struct{}

// Method is referenced from nowhere.
func (T) Method() int { return 6 } // want `T.Method is exported but no non-test file references it`

// OnlyTestMethod is referenced only from a _test.go file.
func (T) OnlyTestMethod() int { return 6 } // want `T.OnlyTestMethod is exported but no non-test file references it`

// Called is called through a selector in the caller package.
func (T) Called() int { return 6 }

// Value is reached as a method value in the caller package.
func (T) Value() int { return 6 }

// Expr is reached as a method expression in the caller package.
func (T) Expr() int { return 6 }

// Exampled is reached only from an Example.
func (*T) Exampled() int { return 6 }

// Size satisfies the module interface Sizer.
func (T) Size() int { return 6 }

// Take satisfies the generic interface Taker[int].
func (T) Take() int { return 6 }

// String satisfies fmt.Stringer, which only fmt calls.
func (T) String() string { return fmt.Sprint(6) }

// Read satisfies io.Reader under other parameter names; io is imported
// only through fmt.
func (T) Read(buf []byte) (count int, failure error) { return 0, nil }

// Loop is referenced only from its own body.
func (t T) Loop(n int) int { // want `T.Loop is exported but no non-test file references it`
	if n == 0 {
		return 0
	}
	return t.Loop(n - 1)
}

// KeptMethod is kept on purpose, and says why.
//
//distlint:unreachable-ok test helper: the fixture's own tests
func (T) KeptMethod() int { return 6 }

// BareMethod carries the directive without a reason.
//
//distlint:unreachable-ok
func (T) BareMethod() int { return 6 } // want `T.BareMethod: //distlint:unreachable-ok needs a reason`

// Inner's method is reached only by promotion through Outer.
type Inner struct{}

// Promoted is called as Outer.Promoted in the caller package.
func (Inner) Promoted() int { return 6 }

// Outer embeds Inner.
type Outer struct{ Inner }

// Box has a generic receiver.
type Box[E any] struct{ v E }

// Get is called on a Box[int] in the caller package.
func (b Box[E]) Get() E { return b.v }

// Put is referenced from nowhere.
func (b *Box[E]) Put(v E) { b.v = v } // want `Box.Put is exported but no non-test file references it`

func helper() int { return 7 }

func unused() int { return 8 }
