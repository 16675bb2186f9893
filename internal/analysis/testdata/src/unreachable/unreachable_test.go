package unreachable

import "testing"

func TestOnlyTest(t *testing.T) {
	if OnlyTest()+Kept() != 7 {
		t.Fatal("fixture arithmetic")
	}
}
