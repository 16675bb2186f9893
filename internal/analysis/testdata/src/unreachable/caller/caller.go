package main

import "unreachable"

func main() {
	var t unreachable.T
	value := t.Value
	println(unreachable.Used(), t.Called(), value(), unreachable.T.Expr(t))
	println(unreachable.Outer{}.Promoted(), unreachable.Box[int]{}.Get())
}
