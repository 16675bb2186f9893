//go:build !amd64 || purego

package service

// rowBodies are the bodies of scanRow that can run here: the portable one.
var rowBodies = []rowBody{{"portable", false}}

// use selects the body for scanRow: there is one.
func (rowBody) use() (restore func()) { return func() {} }
