// Command ncdump prints the header of a file in the repository's
// netCDF-like or hdf5lite format — dimensions, variables, attributes,
// chunking, and compression — reading only the header bytes, like the
// real ncdump -h.
//
// Usage:
//
//	ncdump [-chunks] [-s] file.nc
//
// -s additionally prints the per-chunk zone-map statistics (min, max,
// element count, fill count) the writer records in the header — the
// numbers the pushdown query planner prunes with.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"scidp/internal/hdf5lite"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/scifmt"
)

func main() {
	chunks := flag.Bool("chunks", false, "also print the per-chunk index")
	stats := flag.Bool("s", false, "also print per-chunk zone-map statistics (implies -chunks)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ncdump [-chunks] [-s] <file>")
		os.Exit(2)
	}
	if *stats {
		*chunks = true
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncdump: %v\n", err)
		os.Exit(1)
	}
	r := netcdf.BytesReader(data)
	switch {
	case netcdf.Detect(r):
		dumpNetCDF(flag.Arg(0), r, *chunks, *stats)
	case hdf5lite.IsHDF5(r):
		dumpHDF5(flag.Arg(0), r, *chunks, *stats)
	default:
		fmt.Fprintf(os.Stderr, "ncdump: %s: not a recognized scientific format\n", flag.Arg(0))
		os.Exit(1)
	}
}

// ncStats renders one chunk's zone map.
func ncStats(st ioengine.ChunkStats) string {
	return fmt.Sprintf(" stats[min=%g max=%g count=%d fill=%d]", st.Min, st.Max, st.Count, st.Fill)
}

func dumpNetCDF(name string, r netcdf.ReaderAt, chunks, stats bool) {
	f, err := netcdf.Open(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncdump: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("netcdf %s {\n", name)
	fmt.Println("dimensions:")
	for _, d := range f.Dims() {
		fmt.Printf("\t%s = %d ;\n", d.Name, d.Len)
	}
	fmt.Println("variables:")
	for _, v := range f.Vars() {
		fmt.Printf("\t%s %s(", v.Type, v.Name)
		for i, d := range v.Dims {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(d.Name)
		}
		fmt.Println(") ;")
		for _, a := range v.Attrs {
			fmt.Printf("\t\t%s:%s = %s ;\n", v.Name, a.Name, attrValue(a))
		}
		if v.ChunkShape != nil {
			fmt.Printf("\t\t%s:_ChunkShape = %v ; _Deflate = %d ;\n", v.Name, v.ChunkShape, v.Deflate)
		}
		fmt.Printf("\t\t%s:_Storage = raw %d B, stored %d B (%d chunks)\n",
			v.Name, v.RawBytes(), v.StoredBytes(), len(v.Chunks))
		if chunks {
			g := v.Grid()
			for i, c := range v.Chunks {
				index, _ := g.Box(i) // the chunk's start, then its place in the grid
				for d := range index {
					index[d] /= g.Chunk[d]
				}
				fmt.Printf("\t\t  chunk %d: index=%v offset=%d stored=%d raw=%d",
					i, index, c.Offset, c.StoredSize, c.RawSize)
				if stats {
					fmt.Print(ncStats(c.Stats))
				}
				fmt.Println()
			}
		}
	}
	fmt.Println("// global attributes:")
	for _, a := range f.GlobalAttrs() {
		fmt.Printf("\t\t:%s = %s ;\n", a.Name, attrValue(a))
	}
	fmt.Printf("}\n// header: %d bytes of %d\n", f.Header.Bytes, r.Size())
}

func attrValue(a netcdf.Attr) string {
	switch a.Kind {
	case netcdf.AttrString:
		return fmt.Sprintf("%q", a.Str)
	case netcdf.AttrFloat64:
		return fmt.Sprintf("%g", a.F64)
	case netcdf.AttrInt64:
		return fmt.Sprintf("%d", a.I64)
	}
	return "?"
}

func dumpHDF5(name string, r scifmt.ReaderAt, chunks, stats bool) {
	f, err := hdf5lite.Open(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncdump: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("hdf5 %s {\n", name)
	var walk func(g *hdf5lite.Group, indent string)
	walk = func(g *hdf5lite.Group, indent string) {
		for _, k := range slices.Sorted(maps.Keys(g.Attrs)) {
			fmt.Printf("%s:%s = %q ;\n", indent, k, g.Attrs[k])
		}
		for _, d := range g.Datasets {
			fmt.Printf("%s%s %s%v chunkRows=%d deflate=%d (%d chunks, raw %d B, stored %d B)\n",
				indent, d.Type, d.Name, d.Shape, d.ChunkRows, d.Deflate, len(d.Chunks), d.RawBytes(), d.StoredBytes())
			if chunks {
				g := d.Grid()
				for i, c := range d.Chunks {
					start, extent := g.Box(i)
					fmt.Printf("%s  chunk %d: rows [%d,+%d) offset=%d stored=%d",
						indent, i, start[0], extent[0], c.Offset, c.StoredSize)
					if stats {
						fmt.Print(ncStats(c.Stats))
					}
					fmt.Println()
				}
			}
		}
		for _, c := range g.Children {
			fmt.Printf("%sgroup %s {\n", indent, c.Name)
			walk(c, indent+"\t")
			fmt.Printf("%s}\n", indent)
		}
	}
	walk(f.Root(), "\t")
	fmt.Printf("}\n// header: %d bytes of %d\n", f.Header.Bytes, r.Size())
}
