// Package errcontract fixtures: positive and negative cases for the
// errcontract analyzer.
package errcontract

import (
	"errors"
	"fmt"
	"io"
)

var ErrBad = errors.New("bad")

func wrapGood(err error) error {
	return fmt.Errorf("loading config: %w", err)
}

func wrapTwo(err error) error {
	return fmt.Errorf("%w: %w", ErrBad, err)
}

func wrapBad(err error) error {
	return fmt.Errorf("loading config: %v", err) // want `no %w`
}

func wrapOneOfTwo(err error) error {
	return fmt.Errorf("%w from %v", ErrBad, err) // want `no %w`
}

func percentLiteral(pct float64) error {
	return fmt.Errorf("%.0f%% over budget", pct)
}

func cmpNil(err error) bool {
	return err != nil
}

func cmpSentinel(err error) bool {
	return err == ErrBad || errors.Is(err, io.EOF) || err == io.EOF
}

func cmpBad(a, b error) bool {
	return a == b // want `use errors.Is`
}

func cmpLocal(err error) bool {
	local := errors.New("transient")
	return err == local // want `use errors.Is`
}

func report() error {
	panic("not implemented") // want `panic in error-reporting code`
}

// mustReport's doc comment earns no exemption, whatever it says.
func mustReport() {
	panic("legacy contract") // want `panic in error-reporting code`
}

func unreachable(ok bool) {
	if !ok {
		//distlint:panic-ok validated by the caller, provably unreachable
		panic("unreachable")
	}
}
