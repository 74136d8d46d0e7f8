// Package godirective is the fixture of TestGoDirectiveCatchesChdir: a
// package whose test file uses testing's (*T).Chdir, which Go 1.24 added.
package godirective

// Dir names the directory a test changes into.
const Dir = "sub"
