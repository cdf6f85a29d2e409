package ioengine

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// oneShotDeflate is the reference: a fresh compressor per payload.
func oneShotDeflate(t testing.TB, raw []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkPayload is float-like data that compresses but not trivially.
func chunkPayload(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((i*(seed+7))>>3) ^ byte(i%4*seed)
	}
	return b
}

// codecSizes are the chunk sizes the formats produce: empty, one byte, a
// netcdf level chunk (1x40x40 float32), an hdf5lite row chunk, a clamped
// edge chunk, and one well past the decompressor's 32 KB window.
var codecSizes = []int{0, 1, 6400, 4 * 40 * 4, 6400 - 160, 200_000}

// TestCodecRoundTripAndCrossCheck: a reused Deflater emits exactly the
// bytes of a one-shot flate.NewWriter at the same level, in any order of
// levels and sizes, and Inflate, its decoder reused, restores the input.
func TestCodecRoundTripAndCrossCheck(t *testing.T) {
	var d Deflater
	for round := 0; round < 2; round++ {
		for _, level := range []int{1, 6, 9, 2} {
			for i, n := range codecSizes {
				raw := chunkPayload(n, i+round)
				stored, err := d.Deflate(raw, level)
				if err != nil {
					t.Fatal(err)
				}
				if want := oneShotDeflate(t, raw, level); !bytes.Equal(stored, want) {
					t.Fatalf("level %d size %d: reused compressor differs from one-shot", level, n)
				}
				got, err := Inflate(stored, int64(n))
				if err != nil {
					t.Fatalf("level %d size %d: %v", level, n, err)
				}
				if !bytes.Equal(got, raw) {
					t.Fatalf("level %d size %d: round trip differs", level, n)
				}
				if len(got) != n || cap(got) != n {
					t.Fatalf("size %d: inflated len %d cap %d, want an exact-size buffer", n, len(got), cap(got))
				}
			}
		}
	}
	for _, level := range []int{0, -1, 10} {
		if _, err := d.Deflate([]byte("x"), level); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
}

// TestInflateRejectsBadChunks covers the three ways a chunk can disagree
// with its header, and that a reused decoder is clean after each.
func TestInflateRejectsBadChunks(t *testing.T) {
	raw := chunkPayload(6400, 1)
	var d Deflater
	stored, err := d.Deflate(raw, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		stored  []byte
		rawSize int64
		want    string
	}{
		{"truncated stream", stored[:len(stored)/2], 6400, "inflate: unexpected EOF"},
		{"empty stream", nil, 1, "inflate: unexpected EOF"},
		{"garbage", []byte{0xff, 0xff, 0xff, 0xff}, 16, "inflate: "},
		{"stream shorter than declared", stored, 6401, "raw size 6400, want 6401"},
		{"stream longer than declared", stored, 6399, "raw size at least 6400, want 6399"},
		{"longer than declared empty", stored, 0, "raw size at least 1, want 0"},
		{"absurd raw size", stored, 1 << 60, "impossible"},
		{"just past max expansion", stored, int64(len(stored))*maxDeflateRatio + inflateSlack + 1, "impossible"},
		{"negative raw size", stored, -1, "impossible"},
	} {
		_, err := Inflate(c.stored, c.rawSize)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if got, err := Inflate(stored, 6400); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("after %s: good chunk no longer inflates: %v", c.name, err)
		}
	}
}

// TestInflateConcurrent inflates from 8 goroutines with per-call result
// checks; `make race` runs it under the race detector.
func TestInflateConcurrent(t *testing.T) {
	var d Deflater
	raws := make([][]byte, len(codecSizes))
	stored := make([][]byte, len(codecSizes))
	for i, n := range codecSizes {
		raws[i] = chunkPayload(n, i)
		var err error
		if stored[i], err = d.Deflate(raws[i], 6); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				i := (g + n) % len(raws)
				got, err := Inflate(stored[i], int64(len(raws[i])))
				if err != nil || !bytes.Equal(got, raws[i]) {
					t.Errorf("goroutine %d call %d size %d: wrong result (err %v)", g, n, len(raws[i]), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// referenceInflate is the decoder Inflate replaced, kept as its oracle:
// a pooled compress/flate reader, reset over the stored bytes, read into
// an exact-size buffer and then one byte past it.
func referenceInflate(stored []byte, rawSize int64) ([]byte, error) {
	if rawSize < 0 || rawSize > int64(len(stored))*maxDeflateRatio+inflateSlack {
		return nil, fmt.Errorf("chunk raw size %d impossible for %d stored bytes", rawSize, len(stored))
	}
	z := referenceInflaters.Get().(*referenceInflater)
	defer func() {
		z.src.Reset(nil) // do not pin the caller's bytes in the pool
		referenceInflaters.Put(z)
	}()
	z.src.Reset(stored)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	out := make([]byte, rawSize)
	n := 0
	for n < len(out) {
		m, err := z.fr.Read(out[n:])
		n += m
		if err == io.EOF {
			break // clean end of stream; a damaged one is flate's own error
		}
		if err != nil {
			return nil, fmt.Errorf("inflate: %w", err)
		}
	}
	if n < len(out) {
		return nil, fmt.Errorf("chunk raw size %d, want %d", n, rawSize)
	}
	// One byte past the declared size: a well-formed chunk is at its end.
	switch m, err := z.fr.Read(z.past[:]); {
	case m > 0:
		return nil, fmt.Errorf("chunk raw size at least %d, want %d", rawSize+1, rawSize)
	case err != io.EOF:
		return nil, fmt.Errorf("inflate: %w", err)
	}
	return out, nil
}

// referenceInflater is one reusable decompressor with its input reader.
type referenceInflater struct {
	src  bytes.Reader
	fr   io.ReadCloser // implements flate.Resetter
	past [1]byte       // read target for the one byte past the raw size
}

var referenceInflaters = sync.Pool{New: func() any {
	z := &referenceInflater{}
	z.fr = flate.NewReader(&z.src)
	return z
}}

// ReferenceInflate lends the oracle to the package's external tests.
var ReferenceInflate = referenceInflate

// checkAgainstReference fails unless Inflate and the reference agree on
// the bytes and on whether there is an error.
func checkAgainstReference(t testing.TB, stored []byte, rawSize int64) {
	t.Helper()
	got, err := Inflate(stored, rawSize)
	want, werr := referenceInflate(stored, rawSize)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%d stored bytes, raw size %d: Inflate = %d bytes, %v; reference = %d bytes, %v",
			len(stored), rawSize, len(got), err, len(want), werr)
	}
}

// deflateLevels are every level flate.NewWriter takes: Huffman-only (−2),
// the default (−1), stored blocks (0) and 1–9.
var deflateLevels = []int{-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// TestInflateMatchesReference: at every level and chunk size the decoder
// returns the reference's bytes, and the reference's verdict when the
// declared size is one short or one long. Then every one-bit flip of a
// stream's first 64 bytes, its block header and code tables, where a flip
// leaves a code over-subscribed, incomplete or a single symbol.
func TestInflateMatchesReference(t *testing.T) {
	for _, level := range deflateLevels {
		for i, n := range codecSizes {
			stored := oneShotDeflate(t, chunkPayload(n, i), level)
			for _, raw := range []int64{int64(n), int64(n) - 1, int64(n) + 1} {
				checkAgainstReference(t, stored, raw)
			}
		}
	}
	for _, level := range []int{-2, 1, 6} {
		stored := oneShotDeflate(t, chunkPayload(6400, 1), level)
		for bit := range min(len(stored), 64) * 8 {
			flipped := bytes.Clone(stored)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkAgainstReference(t, flipped, 6400)
		}
	}
}

// FuzzInflate: on any stored bytes and declared size, the decoder and the
// reference agree on the bytes and on whether there is an error. Seeds are
// streams at every level, then truncated, bit-flipped and trailed by
// garbage.
func FuzzInflate(f *testing.F) {
	for _, level := range deflateLevels {
		for i, n := range []int{0, 1, 300, 6400} {
			raw := chunkPayload(n, i+level)
			stored := oneShotDeflate(f, raw, level)
			f.Add(stored, int64(n))
			f.Add(stored[:len(stored)/2], int64(n))
			flipped := bytes.Clone(stored)
			flipped[len(flipped)/3] ^= 0x10
			f.Add(flipped, int64(n))
			f.Add(append(bytes.Clone(stored), 0xde, 0xad, 0xbe, 0xef), int64(n))
		}
	}
	f.Fuzz(func(t *testing.T, stored []byte, rawSize int64) {
		if rawSize > 1<<22 {
			rawSize %= 1 << 22 // keep the output allocation small
		}
		checkAgainstReference(t, stored, rawSize)
	})
}
