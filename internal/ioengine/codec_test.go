package ioengine

import (
	"bytes"
	"compress/flate"
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
// levels and sizes, and the pooled Inflate restores the input.
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
// with its header, and that a pooled decompressor is clean after each.
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

var codecSink []byte

// BenchmarkChunkInflate inflates one netcdf level chunk (6400 raw bytes).
func BenchmarkChunkInflate(b *testing.B) {
	raw := chunkPayload(6400, 1)
	stored := oneShotDeflate(b, raw, 6)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Inflate(stored, int64(len(raw)))
		if err != nil {
			b.Fatal(err)
		}
		codecSink = out
	}
}
