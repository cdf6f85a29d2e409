package scifmt

import (
	"fmt"

	"scidp/internal/hdf5lite"
	"scidp/internal/netcdf"
)

// NetCDF returns the Format plugin for the netCDF-like format.
func NetCDF() Format { return netcdfFormat{} }

// HDF5 returns the Format plugin for the hierarchical hdf5lite format.
func HDF5() Format { return hdf5Format{} }

// Default returns a registry with both built-in formats installed, netCDF
// probed first (matching the paper's NU-WRF deployment).
func Default() *Registry {
	r := NewRegistry()
	r.Register(NetCDF())
	r.Register(HDF5())
	return r
}

// ---- netCDF adapter.

type netcdfFormat struct{}

func (netcdfFormat) Name() string { return "netcdf" }

func (netcdfFormat) Detect(r ReaderAt) bool { return netcdf.Detect(r) }

func (netcdfFormat) Explore(r ReaderAt) (*Info, error) {
	f, err := netcdf.Open(r)
	if err != nil {
		return nil, err
	}
	gattrs, vars := f.GlobalAttrs(), f.Vars()
	info := &Info{Format: "netcdf", Attrs: make(map[string]string, len(gattrs)), Vars: make([]VarEntry, len(vars)), Header: f.Header}
	for _, a := range gattrs {
		info.Attrs[a.Name] = attrString(a)
	}
	rank := 0
	for _, v := range vars {
		rank += len(v.Dims)
	}
	names := make([]string, rank) // every variable's DimNames, end to end
	for i, v := range vars {
		dn := names[:len(v.Dims):len(v.Dims)]
		names = names[len(v.Dims):]
		for j, d := range v.Dims {
			dn[j] = d.Name
		}
		info.Vars[i] = VarEntry{Path: v.Name, TypeName: v.Type.String(), DimNames: dn, Index: f.ChunkIndex(v), StoredBytes: v.StoredBytes()}
		info.Vars[i].Index.Src = nil
	}
	return info, nil
}

func attrString(a netcdf.Attr) string {
	switch a.Kind {
	case netcdf.AttrString:
		return a.Str
	case netcdf.AttrFloat64:
		return fmt.Sprintf("%g", a.F64)
	case netcdf.AttrInt64:
		return fmt.Sprintf("%d", a.I64)
	}
	return ""
}

// ---- hdf5lite adapter.

type hdf5Format struct{}

func (hdf5Format) Name() string { return "hdf5" }

func (hdf5Format) Detect(r ReaderAt) bool { return hdf5lite.IsHDF5(r) }

func (hdf5Format) Explore(r ReaderAt) (*Info, error) {
	f, err := hdf5lite.Open(r)
	if err != nil {
		return nil, err
	}
	info := &Info{Format: "hdf5", Attrs: map[string]string{}, Header: f.Header}
	for k, v := range f.Root().Attrs {
		info.Attrs[k] = v
	}
	var walk func(g *hdf5lite.Group, prefix string)
	walk = func(g *hdf5lite.Group, prefix string) {
		for _, d := range g.Datasets {
			entry := VarEntry{
				Path:        JoinPath(prefix, d.Name),
				TypeName:    d.Type.String(),
				Index:       f.ChunkIndex(d),
				StoredBytes: d.StoredBytes(),
			}
			entry.Index.Src = nil
			info.Vars = append(info.Vars, entry)
		}
		for _, c := range g.Children {
			walk(c, JoinPath(prefix, c.Name))
		}
	}
	walk(f.Root(), "")
	return info, nil
}
