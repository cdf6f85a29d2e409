package netcdf

import (
	"fmt"

	"scidp/internal/ioengine"
	"scidp/internal/sim"
)

// ReaderAt is the random-access source a file is parsed from — the shared
// ioengine view. The PFS client's engine-backed reader implements it
// (charging virtual time per call, optionally caching and prefetching
// chunks); BytesReader implements it over a plain in-memory blob.
type ReaderAt = ioengine.Source

// BytesReader adapts an in-memory blob to ReaderAt.
type BytesReader = ioengine.Bytes

// CountingReader wraps a ReaderAt and tallies bytes and calls — the hook
// the I/O-efficiency experiments (Figure 6) and the header-cost tests use.
type CountingReader = ioengine.Stats

// Detect reports whether r starts with the format magic — the format-
// checking probe the Sci-format Head Reader uses (the analogue of
// nc_open succeeding / H5Fis_hdf5).
func Detect(r ReaderAt) bool {
	b, err := r.ReadAt(0, int64(len(Magic)))
	return err == nil && string(b) == Magic
}

// File is an opened file: parsed metadata plus the data source for chunk
// reads.
type File struct {
	r      ReaderAt
	dims   []Dim
	gattrs []Attr
	vars   []*Var
	byName map[string]*Var
	// HeaderBytes is how many bytes Open consumed — the metadata-only
	// cost of exploring the file.
	HeaderBytes int64
}

// Open parses the header (two range-reads: the fixed prefix, then the
// header body) without touching any variable data.
func Open(r ReaderAt) (*File, error) {
	prefix, err := r.ReadAt(0, int64(len(Magic))+8)
	if err != nil {
		return nil, err
	}
	if len(prefix) < len(Magic)+8 || string(prefix[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("netcdf: not a %s file", Magic)
	}
	hlen := int64(leUint64(prefix[len(Magic):]))
	if hlen <= 0 || hlen > r.Size() {
		return nil, fmt.Errorf("netcdf: corrupt header length %d", hlen)
	}
	hdr, err := r.ReadAt(int64(len(Magic))+8, hlen)
	if err != nil {
		return nil, err
	}
	if int64(len(hdr)) < hlen {
		return nil, fmt.Errorf("netcdf: truncated header: got %d of %d bytes", len(hdr), hlen)
	}
	f := &File{r: r, byName: map[string]*Var{}, HeaderBytes: int64(len(prefix)) + hlen}
	if err := f.decodeHeader(hdr); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) decodeHeader(hdr []byte) error {
	d := &dec{buf: hdr}
	nd := int(d.u32())
	for i := 0; i < nd && d.err == nil; i++ {
		f.dims = append(f.dims, Dim{Name: d.str(), Len: int(d.u64())})
	}
	f.gattrs = d.attrs()
	nv := int(d.u32())
	for i := 0; i < nv && d.err == nil; i++ {
		v := &Var{Name: d.str(), Type: Type(d.u8())}
		if d.err == nil && (v.Type < Byte || v.Type > Float64) {
			// Size panics on a type it does not know; a header must not get that far.
			return fmt.Errorf("netcdf: %s: unknown element type %d", v.Name, uint8(v.Type))
		}
		ndv := int(d.u32())
		for j := 0; j < ndv && d.err == nil; j++ {
			v.Dims = append(v.Dims, Dim{Name: d.str(), Len: int(d.u64())})
		}
		v.Attrs = d.attrs()
		if d.u8() == 1 {
			v.ChunkShape = make([]int, len(v.Dims))
			for j := range v.ChunkShape {
				v.ChunkShape[j] = int(d.u64())
			}
		}
		v.Deflate = int(d.u8())
		nc := int(d.u32())
		grid := v.chunkGrid()
		rank := len(v.Dims)
		idx := zeros(rank)
		// One slab for every chunk's Index, sized by what the header has
		// bytes for (24 an entry), not by the count a corrupt file declares.
		room := min(nc, (len(d.buf)-d.off)/24)
		v.Chunks = make([]ChunkInfo, 0, room)
		indices := make([]int, 0, room*rank)
		for j := 0; j < nc; j++ {
			ci := ChunkInfo{Offset: int64(d.u64()), StoredSize: int64(d.u64()), RawSize: int64(d.u64())}
			if d.err != nil {
				break
			}
			indices = append(indices, idx...)
			ci.Index = indices[len(indices)-rank : len(indices) : len(indices)]
			v.Chunks = append(v.Chunks, ci)
			incIndex(idx, grid)
		}
		f.vars = append(f.vars, v)
		f.byName[v.Name] = v
	}
	// Optional tagged trailer: per-chunk zone maps. Legacy files end at the
	// variable table; anything after it that doesn't carry the tag is
	// ignored, which is also what pre-zone-map readers do with the trailer.
	if d.err == nil && d.off+4 <= len(d.buf) && leUint32(d.buf[d.off:]) == ioengine.ZoneMapTag {
		d.off += 4
		for _, v := range f.vars {
			n := int(d.u32())
			if d.err != nil {
				break
			}
			if n != len(v.Chunks) {
				d.err = fmt.Errorf("netcdf: %s: stats section has %d chunks, index has %d", v.Name, n, len(v.Chunks))
				break
			}
			stats := make([]ChunkStats, n)
			for j := 0; j < n; j++ {
				rec := d.need(ioengine.ChunkStatsSize)
				if rec == nil {
					break
				}
				stats[j] = ioengine.DecodeChunkStats(rec)
				v.Chunks[j].Stats = &stats[j]
			}
		}
	}
	if d.err != nil {
		return d.err
	}
	return nil
}

// Dims returns the file's dimensions.
func (f *File) Dims() []Dim { return f.dims }

// GlobalAttrs returns the file-level attributes.
func (f *File) GlobalAttrs() []Attr { return f.gattrs }

// Vars returns every variable's metadata — nc_inq.
func (f *File) Vars() []*Var { return f.vars }

// Var returns the named variable's metadata — nc_inq_var.
func (f *File) Var(name string) (*Var, error) {
	v, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("netcdf: no variable %q", name)
	}
	return v, nil
}

// chunkDecoder builds the decompress-and-verify step for chunk ci of v,
// shared by the caching read path and the single-pass scan path.
func chunkDecoder(v *Var, ci ChunkInfo) func(raw []byte) ([]byte, error) {
	return func(raw []byte) ([]byte, error) {
		if int64(len(raw)) < ci.StoredSize {
			return nil, fmt.Errorf("netcdf: %s: truncated chunk at %d", v.Name, ci.Offset)
		}
		if v.Deflate > 0 {
			out, err := ioengine.Inflate(raw, ci.RawSize)
			if err != nil {
				return nil, fmt.Errorf("netcdf: %s: %w", v.Name, err)
			}
			return out, nil
		}
		if int64(len(raw)) != ci.RawSize {
			return nil, fmt.Errorf("netcdf: %s: chunk raw size %d, want %d", v.Name, len(raw), ci.RawSize)
		}
		return raw, nil
	}
}

// readChunk fetches and decompresses chunk ci of v through the engine's
// chunk path, so a caching source serves (and stores) the decompressed
// payload and a prefetching source stages upcoming chunks.
func (f *File) readChunk(v *Var, ci ChunkInfo) ([]byte, error) {
	return ioengine.ReadChunk(f.r, ci.Offset, ci.StoredSize, chunkDecoder(v, ci))
}

// Source returns the random-access source the file was opened over — the
// handle query adapters use to fork fused-scan work onto the data plane.
func (f *File) Source() ReaderAt { return f.r }

// ScanChunk reads and decompresses the i-th chunk of v through the
// engine's single-pass scan path: a caching source serves it if resident
// but does not populate the cache on a miss, so a one-shot query scan
// never evicts hot working-set chunks.
func (f *File) ScanChunk(v *Var, i int) ([]byte, error) {
	if i < 0 || i >= len(v.Chunks) {
		return nil, fmt.Errorf("netcdf: %s: chunk %d out of range [0,%d)", v.Name, i, len(v.Chunks))
	}
	ci := v.Chunks[i]
	return ioengine.ReadChunkOnce(f.r, ci.Offset, ci.StoredSize, chunkDecoder(v, ci))
}

// AnnounceChunks declares the surviving chunks of a pruned scan to the
// engine so a prefetching source stages exactly those — skipped chunks
// are never fetched, never inflated, never cached.
func (f *File) AnnounceChunks(v *Var, chunks []int) {
	plan := make([]ioengine.Range, 0, len(chunks))
	for _, i := range chunks {
		if i < 0 || i >= len(v.Chunks) {
			continue
		}
		ci := v.Chunks[i]
		plan = append(plan, ioengine.Range{Off: ci.Offset, Len: ci.StoredSize})
	}
	ioengine.Announce(f.r, plan)
}

// GetVara reads the hyperslab [start, start+count) of the named variable —
// nc_get_vara. Only chunks overlapping the slab are read (and
// decompressed); that selective I/O is what SciDP's dummy-block reads
// resolve to.
func (f *File) GetVara(name string, start, count []int) (*Array, error) {
	v, err := f.Var(name)
	if err != nil {
		return nil, err
	}
	shape := v.Shape()
	if len(start) != len(shape) || len(count) != len(shape) {
		return nil, fmt.Errorf("netcdf: %s: slab rank %d/%d != var rank %d", name, len(start), len(count), len(shape))
	}
	for i := range shape {
		if start[i] < 0 || count[i] <= 0 || start[i]+count[i] > shape[i] {
			return nil, fmt.Errorf("netcdf: %s: slab [%d,+%d) outside dim %s(%d)", name, start[i], count[i], v.Dims[i].Name, shape[i])
		}
	}
	es := v.Type.Size()
	out := &Array{Type: v.Type, Shape: append([]int(nil), count...), Data: make([]byte, volume(count)*es)}

	grid := v.chunkGrid()
	gstr := strides(grid)
	// Chunk-grid sub-range overlapping the slab.
	lo := make([]int, len(shape))
	hi := make([]int, len(shape)) // inclusive
	cs := v.ChunkShape
	for i := range shape {
		if cs == nil {
			lo[i], hi[i] = 0, 0
			continue
		}
		lo[i] = start[i] / cs[i]
		hi[i] = (start[i] + count[i] - 1) / cs[i]
	}
	// Enumerate the overlapping chunks up front so the read plan can be
	// announced to the engine (a prefetching source overlaps the chunk
	// transfers), then read and scatter them in plan order.
	var touched [][]int
	idx := append([]int(nil), lo...)
	for {
		touched = append(touched, append([]int(nil), idx...))
		// Advance idx within [lo, hi].
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= hi[d] {
				break
			}
			idx[d] = lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	plan := make([]ioengine.Range, 0, len(touched))
	for _, ix := range touched {
		linear := dot(ix, gstr)
		if linear >= len(v.Chunks) {
			return nil, fmt.Errorf("netcdf: %s: chunk index %v out of range", name, ix)
		}
		ci := v.Chunks[linear]
		plan = append(plan, ioengine.Range{Off: ci.Offset, Len: ci.StoredSize})
	}
	ioengine.Announce(f.r, plan)
	// Chunks scatter into disjoint regions of out.Data (the chunk grid
	// partitions index space), so each copyBox forks onto the data plane
	// and all of them join once after the last chunk is fetched.
	var futs []*sim.Future
	for _, ix := range touched {
		ci := v.Chunks[dot(ix, gstr)]
		raw, err := f.readChunk(v, ci)
		if err != nil {
			ioengine.Join(f.r, futs...)
			return nil, err
		}
		cStart, cExtent := v.chunkExtent(ix)
		iStart, iExtent, ok := boxIntersect(start, count, cStart, cExtent)
		if ok {
			srcStart := make([]int, len(shape))
			dstStart := make([]int, len(shape))
			for i := range shape {
				srcStart[i] = iStart[i] - cStart[i]
				dstStart[i] = iStart[i] - start[i]
			}
			raw := raw
			if fut := ioengine.Fork(f.r, func() {
				copyBox(out.Data, count, dstStart, raw, cExtent, srcStart, iExtent, es)
			}); fut != nil {
				futs = append(futs, fut)
			}
		}
	}
	ioengine.Join(f.r, futs...)
	return out, nil
}

// GetVar reads a whole variable.
func (f *File) GetVar(name string) (*Array, error) {
	v, err := f.Var(name)
	if err != nil {
		return nil, err
	}
	return f.GetVara(name, zeros(len(v.Dims)), v.Shape())
}
