package ioengine

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// The chunk codec: the one place the format plugins (netcdf, hdf5lite)
// inflate and deflate chunk payloads. DEFLATE state is expensive to build
// (a decompressor is ~40 KB, a compressor ~850 KB of tables that are
// zeroed on construction), so it is reused: inflaters through a pool,
// deflaters through a Deflater that lives as long as one file encode.
//
// Buffer ownership: pooled state never escapes a call. Inflate returns a
// freshly allocated slice of exactly the declared raw size (the engine
// caches it, so it must be owned), Deflate an exact-size copy.

// maxDeflateRatio is DEFLATE's maximum expansion: a 258-byte match costs
// at least two bits. inflateSlack keeps the bound loose for tiny streams.
const (
	maxDeflateRatio = 1032
	inflateSlack    = 258
)

// inflater is one reusable decompressor with its input reader.
type inflater struct {
	src  bytes.Reader
	fr   io.ReadCloser // implements flate.Resetter
	past [1]byte       // read target for the one byte past the raw size
}

var inflaters = sync.Pool{New: func() any {
	z := &inflater{}
	z.fr = flate.NewReader(&z.src)
	return z
}}

// Inflate decompresses one stored chunk whose header declares rawSize
// decompressed bytes. rawSize comes from a file header, so it is checked
// against DEFLATE's maximum expansion of the stored bytes before anything
// is allocated; a stream that ends short of rawSize or runs past it is an
// error.
func Inflate(stored []byte, rawSize int64) ([]byte, error) {
	if rawSize < 0 || rawSize > int64(len(stored))*maxDeflateRatio+inflateSlack {
		return nil, fmt.Errorf("chunk raw size %d impossible for %d stored bytes", rawSize, len(stored))
	}
	z := inflaters.Get().(*inflater)
	defer func() {
		z.src.Reset(nil) // do not pin the caller's bytes in the pool
		inflaters.Put(z)
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

// Deflater compresses chunk payloads, keeping one compressor per level
// and resetting it between chunks. The zero value is ready to use; a
// Deflater is not safe for concurrent use — a file encoder owns one for
// the duration of the encode.
type Deflater struct {
	w   [10]*flate.Writer // indexed by level 1–9, built on first use
	buf bytes.Buffer
}

// Deflate compresses raw at the given DEFLATE level (1–9). The bytes are
// identical to a one-shot flate.NewWriter at that level.
func (d *Deflater) Deflate(raw []byte, level int) ([]byte, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("ioengine: deflate level %d outside [1,9]", level)
	}
	d.buf.Reset()
	fw := d.w[level]
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(&d.buf, level); err != nil {
			return nil, err
		}
		d.w[level] = fw
	} else {
		fw.Reset(&d.buf)
	}
	if _, err := fw.Write(raw); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(d.buf.Bytes()), nil
}
