package bench

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/ioengine"
	"scidp/internal/mpiio"
	"scidp/internal/netcdf"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
)

// fig6File builds the single shared input of the I/O-efficiency
// experiment: variable QR[time][level][lat][lon] chunked one timestamp
// per chunk, DEFLATE level 1 — the access unit every reader mode divides
// among its ranks.
func fig6File(s Scale, timeSteps int) ([]byte, error) {
	w := netcdf.NewWriter()
	w.AddDim("time", timeSteps)
	w.AddDim("level", s.Levels)
	w.AddDim("lat", s.Lat)
	w.AddDim("lon", s.Lon)
	if err := w.AddVar("QR", netcdf.Float32, []string{"time", "level", "lat", "lon"},
		netcdf.Chunking{Shape: []int{1, s.Levels, s.Lat, s.Lon}, Deflate: 1}); err != nil {
		return nil, err
	}
	n := timeSteps * s.Levels * s.Lat * s.Lon
	vals := make([]float32, n)
	for i := range vals {
		v := float32((i*7)%1000) / 1000
		vals[i] = float32(int(v*1000)) / 1000
	}
	if err := w.PutVarFloat32("QR", vals); err != nil {
		return nil, err
	}
	return w.Bytes()
}

// fig6Rig is the shared hardware: an HPC compute cluster mounting the
// PFS over its fabric (the MPI modes), and a BD cluster mounting it over
// the interlink (SciDP's readers).
type fig6Rig struct {
	k    *sim.Kernel
	hpc  *cluster.Cluster
	bd   *cluster.Cluster
	fs   *pfs.FS
	il   *cluster.Interlink
	blob []byte
	s    Scale
}

func newFig6Rig(s Scale, blob []byte) *fig6Rig {
	bs := s.ByteScale()
	k := sim.NewKernel()
	hpc := cluster.New(k, "hpc", cluster.DefaultHardware(8, 8).Scaled(bs))
	bd := cluster.New(k, "bd", cluster.DefaultHardware(8, 8).Scaled(bs))
	fs := pfs.New(k, pfs.DefaultConfig().Scaled(bs)) // 24 OSTs, as in the paper
	il := cluster.NewInterlink(2*1.25e9/bs, 0.0002)
	fs.Put("/fig6/plot_all.nc", blob)
	return &fig6Rig{k: k, hpc: hpc, bd: bd, fs: fs, il: il, blob: blob, s: s}
}

const fig6Path = "/fig6/plot_all.nc"

// hpcMount gives rank i's PFS client (over the HPC node's NIC).
func (r *fig6Rig) hpcMount(i int) *pfs.Client {
	return r.fs.NewClient(r.hpc.Nodes[i%len(r.hpc.Nodes)].NIC)
}

// bdMount gives a BD node's PFS client (over the interlink).
func (r *fig6Rig) bdMount(n *cluster.Node) *pfs.Client {
	return r.fs.NewClient(r.il.Link, n.NIC)
}

// qrLayout returns the variable's chunk index and sizes (parsed once,
// outside timed regions).
func qrLayout(blob []byte) (*netcdf.Var, error) {
	f, err := netcdf.Open(netcdf.BytesReader(blob))
	if err != nil {
		return nil, err
	}
	return f.Var("QR")
}

// fig6Mode runs one reader mode with n readers and returns (elapsed
// seconds, stored bytes read, raw bytes decoded).
type fig6Mode func(r *fig6Rig, n int, decompressPerRawMB float64) (float64, int64, int64, error)

// ncIndependent: each rank opens the file and reads its time-slab with
// per-chunk hyperslab reads (nc_get_vara in independent mode).
func ncIndependent(r *fig6Rig, n int, decomp float64) (float64, int64, int64, error) {
	v, err := qrLayout(r.blob)
	if err != nil {
		return 0, 0, 0, err
	}
	timeSteps := v.Dims[0].Len
	rawPer := v.RawBytes() / int64(timeSteps)
	var errOut error
	start := r.k.Now()
	var end float64
	var stored, raw int64
	for i := 0; i < n; i++ {
		i := i
		r.k.Go(fmt.Sprintf("nc-ind-%d", i), func(p *sim.Proc) {
			mount := r.hpcMount(i)
			reader, err := mount.OpenReader(p, fig6Path)
			if err != nil {
				errOut = err
				return
			}
			f, err := netcdf.Open(reader)
			if err != nil {
				errOut = err
				return
			}
			for ts := i; ts < timeSteps; ts += n {
				arr, err := f.GetVara("QR", []int{ts, 0, 0, 0}, []int{1, r.s.Levels, r.s.Lat, r.s.Lon})
				if err != nil {
					errOut = err
					return
				}
				p.Sleep(decomp * float64(len(arr.Data)) / 1e6)
				stored += v.Chunks[ts].StoredSize
				raw += rawPer
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	r.k.Run()
	return end - start, stored, raw, errOut
}

// ncCollective: ranks hand their chunk byte-ranges to a two-phase
// collective read, then decompress locally.
func ncCollective(r *fig6Rig, n int, decomp float64) (float64, int64, int64, error) {
	v, err := qrLayout(r.blob)
	if err != nil {
		return 0, 0, 0, err
	}
	timeSteps := v.Dims[0].Len
	ranks := make([]mpiio.Rank, n)
	for i := range ranks {
		ranks[i] = mpiio.Rank{Node: r.hpc.Nodes[i%len(r.hpc.Nodes)], Client: r.hpcMount(i)}
	}
	comm := mpiio.NewComm(r.k, r.hpc, ranks)
	// Each rank requests the contiguous byte span of its chunk range.
	reqs := make([]mpiio.Range, n)
	var stored int64
	for i := 0; i < n; i++ {
		lo, hi := int64(-1), int64(-1)
		for ts := i; ts < timeSteps; ts += n {
			c := v.Chunks[ts]
			if lo < 0 || c.Offset < lo {
				lo = c.Offset
			}
			if c.Offset+c.StoredSize > hi {
				hi = c.Offset + c.StoredSize
			}
			stored += c.StoredSize
		}
		if lo >= 0 {
			reqs[i] = mpiio.Range{Off: lo, Len: hi - lo}
		}
	}
	start := r.k.Now()
	res := comm.CollectiveRead(fig6Path, reqs, min(n, 8))
	r.k.Run()
	if res.Err != nil {
		return 0, 0, 0, res.Err
	}
	// Decompression happens after the collective completes (charged on
	// the critical path, spread across ranks).
	raw := v.RawBytes()
	var end float64
	for i := 0; i < n; i++ {
		r.k.Go("decomp", func(p *sim.Proc) {
			p.Sleep(decomp * float64(raw) / float64(n) / 1e6)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	r.k.Run()
	return end - start, stored, raw, nil
}

// mpiCollective: the ideal upper bound — the file read as flat bytes with
// a collective contiguous split, no structure, no decompression.
func mpiCollective(r *fig6Rig, n int, _ float64) (float64, int64, int64, error) {
	ranks := make([]mpiio.Rank, n)
	for i := range ranks {
		ranks[i] = mpiio.Rank{Node: r.hpc.Nodes[i%len(r.hpc.Nodes)], Client: r.hpcMount(i)}
	}
	comm := mpiio.NewComm(r.k, r.hpc, ranks)
	size := int64(len(r.blob))
	start := r.k.Now()
	res := comm.CollectiveRead(fig6Path, mpiio.ContiguousSplit(size, n), min(n, 8))
	r.k.Run()
	if res.Err != nil {
		return 0, 0, 0, res.Err
	}
	return res.End - start, size, size, nil
}

// scidpReaders: n concurrent SciDP tasks, each resolving its dummy block
// (a time-slab of QR) through the PFS Reader over the interlink.
func scidpReaders(r *fig6Rig, n int, decomp float64) (float64, int64, int64, error) {
	// The File Explorer's view of the file, taken once before the kernel
	// runs and at no virtual cost: every task's dummy block points into it.
	info, err := scifmt.NetCDF().Explore(ioengine.Bytes(r.blob))
	if err != nil {
		return 0, 0, 0, err
	}
	v := &info.Vars[0] // QR, the file's one variable
	timeSteps := v.Index.Grid.Shape[0]
	rawPer := int64(ioengine.Volume(v.Index.Grid.Shape[1:]) * v.Index.Type.Size())
	reg := core.NewExplorer(nil).Registry
	var errOut error
	start := r.k.Now()
	var end float64
	var stored, raw int64
	for i := 0; i < n; i++ {
		i := i
		node := r.bd.Nodes[i%len(r.bd.Nodes)]
		r.k.Go(fmt.Sprintf("scidp-%d", i), func(p *sim.Proc) {
			reader := core.NewPFSReader(reg, r.bdMount(node))
			for ts := i; ts < timeSteps; ts += n {
				slab, err := reader.ReadSlab(p, &core.SlabSource{
					PFSPath: fig6Path, Format: "netcdf", Header: &info.Header, Var: v,
					Start: []int{ts, 0, 0, 0},
					Count: []int{1, r.s.Levels, r.s.Lat, r.s.Lon},
				})
				if err != nil {
					errOut = err
					return
				}
				p.Sleep(decomp * float64(len(slab.Raw)) / 1e6)
				stored += v.Index.Chunks[ts].StoredSize
				raw += rawPer
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	r.k.Run()
	return end - start, stored, raw, errOut
}

// Fig6 sweeps reader counts over the four I/O methods and reports logical
// bandwidth (GB/s): NC Ind I/O, NC Coll I/O, MPI Coll I/O (ideal), SciDP
// (compressed bytes / time), and SciDP Equal (raw bytes / time).
func Fig6(s Scale, timeSteps int, readerCounts []int) (*Table, error) {
	blob, err := fig6File(s, timeSteps)
	if err != nil {
		return nil, err
	}
	// Decompression cost per actual raw MB, scaled from 0.004 s per
	// logical MB.
	decomp := 0.004 * s.ByteScale()
	t := &Table{
		ID:     "Figure 6",
		Title:  "I/O bandwidth of SciDP and HPC I/O methods (logical GB/s)",
		Header: append([]string{"readers"}, "NC Ind I/O", "NC Coll I/O", "MPI Coll I/O", "SciDP", "SciDP Equal"),
	}
	modes := []fig6Mode{ncIndependent, ncCollective, mpiCollective, scidpReaders}
	for _, n := range readerCounts {
		row := []string{fmt.Sprintf("%d", n)}
		var scidpStoredBW, scidpRawBW float64
		for mi, mode := range modes {
			rig := newFig6Rig(s, blob)
			elapsed, storedBytes, rawBytes, err := mode(rig, n, decomp)
			if err != nil {
				return nil, err
			}
			logicalGBs := func(b int64) float64 {
				return float64(b) * s.ByteScale() / elapsed / 1e9
			}
			switch mi {
			case 3: // SciDP: both compressed and equivalent bandwidth
				scidpStoredBW = logicalGBs(storedBytes)
				scidpRawBW = logicalGBs(rawBytes)
			default:
				row = append(row, fmt.Sprintf("%.2f", logicalGBs(storedBytes)))
			}
		}
		row = append(row, fmt.Sprintf("%.2f", scidpStoredBW), fmt.Sprintf("%.2f", scidpRawBW))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"SciDP Equal divides raw (decompressed) bytes by I/O time, as in the paper; it should approach MPI Coll I/O as readers increase",
		"I/O time includes decompression (paper Section V-C)")
	return t, nil
}
