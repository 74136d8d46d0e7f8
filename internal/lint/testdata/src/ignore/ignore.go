// Package ignore exercises the //lint:ignore directive: valid suppressions
// (standalone and trailing) silence a finding, a directive without a reason
// is itself a finding, and a directive naming the wrong rule suppresses
// nothing and is itself a finding.
package ignore

import "os"

// Suppressed demonstrates a valid standalone suppression with a reason.
func Suppressed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//lint:ignore unchecked-close read-only probe; nothing written can be lost
	defer f.Close()
	return nil
}

// TrailingSuppressed demonstrates the same-line form.
func TrailingSuppressed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:ignore unchecked-close read-only probe; trailing form
	return nil
}

// MissingReason shows that a reasonless directive is a finding AND fails to
// suppress.
func MissingReason(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// want ignore
	//lint:ignore unchecked-close
	defer f.Close() // want unchecked-close
	return nil
}

// WrongRule names a different rule; the finding still fires, and so does
// the unused directive.
func WrongRule(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// want ignore
	//lint:ignore nondeterminism file closes have nothing to do with clocks
	defer f.Close() // want unchecked-close
	return nil
}
