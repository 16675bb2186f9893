package asmspec

import "testing"

func TestAddBitIdentical(t *testing.T) {}

func FuzzAddEquivalence(f *testing.F) {}

func BenchmarkAdd(b *testing.B) {}
