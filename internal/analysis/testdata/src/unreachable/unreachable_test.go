package unreachable

import "testing"

func TestOnlyTest(t *testing.T) {
	var v T
	if OnlyTest()+Kept()+v.OnlyTestMethod()+v.KeptMethod() != 19 {
		t.Fatal("fixture arithmetic")
	}
}

func ExampleExampled() {
	var t T
	println(Exampled() + t.Exampled())
}
