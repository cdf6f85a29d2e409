package main

import (
	"bytes"
	"os"
	"testing"

	"scidp/internal/hdf5lite"
)

// goldenH5 is the hdf5lite file the identity artifacts dump with -s, so
// that hdf5lite's decode runs in every identity comparison.
const goldenH5 = "testdata/nested.h5"

// nestedH5 builds goldenH5's bytes: groups two deep with one attribute
// each, a chunked and deflated float32 dataset whose last chunk is short,
// and a contiguous, stored int32 one at each level. Values are exact in
// float32, so no platform's floating point changes them.
func nestedH5(t *testing.T) []byte {
	t.Helper()
	w := hdf5lite.NewWriter()
	w.Root().Attrs["title"] = "nested"
	model := w.Root().EnsureGroup("model")
	model.Attrs["run"] = "golden"
	phys := model.EnsureGroup("physics")
	phys.Attrs["scheme"] = "GCE"
	vals := make([]float32, 7*4*3)
	for i := range vals {
		vals[i] = float32(i%13)*0.25 - 1
	}
	if _, err := phys.AddFloat32("QR", []int{7, 4, 3}, 3, 6, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := model.AddInt32("steps", []int{4}, 0, 0, []int32{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Root().AddInt32("mask", []int{2, 3}, 1, 0, []int32{1, 0, 1, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGoldenHDF5 regenerates goldenH5 and fails when its bytes changed: a
// change to what hdf5lite writes then shows as a diff of the committed
// file, which the next run reads back unchanged.
func TestGoldenHDF5(t *testing.T) {
	blob := nestedH5(t)
	old, err := os.ReadFile(goldenH5)
	if err == nil && bytes.Equal(old, blob) {
		return
	}
	if err := os.WriteFile(goldenH5, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%s differed from what the writer makes (%d bytes, now %d): rewritten, commit it if the change is meant", goldenH5, len(old), len(blob))
}
