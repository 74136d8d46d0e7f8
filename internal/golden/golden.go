// Package golden is test support for the packages that write images: it
// digests an output directory so a test can hold every byte an adaptor wrote
// against digests recorded at an earlier commit.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// SkipUnlessAMD64 skips a digest test on architectures where the compiler
// may fuse multiply-adds and legally move the low bits the digests pin.
func SkipUnlessAMD64(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64")
	}
}

// Dir returns the SHA-256 of every file in dir keyed by prefix + file name,
// and the keys, in name order, of the PNGs among them that are one flat
// colour — a digest table proves little if the frames it pins show nothing.
func Dir(t testing.TB, dir, prefix string) (digests map[string]string, blank []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	digests = map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		digests[prefix+e.Name()] = hex.EncodeToString(sum[:])
		if strings.HasSuffix(e.Name(), ".png") && flat(t, e.Name(), data) {
			blank = append(blank, prefix+e.Name())
		}
	}
	return digests, blank
}

func flat(t testing.TB, name string, data []byte) bool {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b := img.Bounds()
	first := img.At(b.Min.X, b.Min.Y)
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			if img.At(x, y) != first {
				return false
			}
		}
	}
	return true
}

// Compare holds got against the rows of recorded whose key starts with
// prefix: it fails the test for every such row whose digest in got differs or
// is missing, and for every key of got that has no row.
func Compare(t testing.TB, got, recorded map[string]string, prefix string) {
	t.Helper()
	for k, want := range recorded {
		if strings.HasPrefix(k, prefix) && got[k] != want {
			t.Errorf("%s: digest %q, recorded %q", k, got[k], want)
		}
	}
	for k, g := range got {
		if _, ok := recorded[k]; !ok {
			t.Errorf("%s: digest %q, nothing recorded", k, g)
		}
	}
}
