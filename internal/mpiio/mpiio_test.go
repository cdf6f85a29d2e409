package mpiio

import (
	"bytes"
	"testing"
	"testing/quick"

	"scidp/internal/cluster"
	"scidp/internal/ioengine"
	"scidp/internal/pfs"
	"scidp/internal/sim"
)

// rig builds a kernel, an HPC cluster, a PFS with a test file, and a
// communicator with one rank per node.
func rig(t *testing.T, nodes int, fileSize int) (*sim.Kernel, *Comm, []byte) {
	t.Helper()
	k := sim.NewKernel()
	cl := cluster.New(k, "hpc", cluster.Config{
		Nodes: nodes, SlotsPerNode: 1,
		DiskBW: 1e6, NICBW: 1000, FabricBW: float64(nodes) * 1000,
	})
	pcfg := pfs.DefaultConfig()
	pcfg.OSTBW = 500
	pcfg.OSSNICBW = 1e6
	pcfg.FabricBW = 1e6
	pcfg.DefaultStripeSize = 64
	pcfg.DefaultStripeCount = 8
	pcfg.OSTLatency = 0.01
	pcfg.MDSLatency = 0
	fs := pfs.New(k, pcfg)
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	fs.Put("/f", data)
	ranks := make([]Rank, nodes)
	for i := range ranks {
		ranks[i] = Rank{Node: cl.Node(i), Client: fs.NewClient(cl.Node(i).NIC)}
	}
	return k, NewComm(k, cl, ranks), data
}

func TestIndependentReadCorrectness(t *testing.T) {
	k, comm, data := rig(t, 4, 1024)
	reqs := ContiguousSplit(1024, 4)
	res := comm.IndependentRead("/f", reqs)
	k.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var all []byte
	for _, d := range res.Data {
		all = append(all, d...)
	}
	if !bytes.Equal(all, data) {
		t.Fatal("independent read reassembly mismatch")
	}
	if res.Elapsed() <= 0 {
		t.Fatal("elapsed should be positive")
	}
}

func TestCollectiveReadCorrectness(t *testing.T) {
	k, comm, data := rig(t, 4, 1024)
	// Interleaved small requests: rank i reads bytes [i*16 + 64*j ...).
	reqs := make([]Range, 4)
	for i := range reqs {
		reqs[i] = Range{Off: int64(i) * 256, Len: 256}
	}
	res := comm.CollectiveRead("/f", reqs, 2)
	k.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, d := range res.Data {
		if !bytes.Equal(d, data[i*256:(i+1)*256]) {
			t.Fatalf("rank %d data mismatch", i)
		}
	}
}

func TestCollectiveBeatsIndependentOnFragmentedRequests(t *testing.T) {
	// Many small strided requests pay per-request OST latency when
	// independent; two-phase coalesces them into two large reads.
	const nodes, size = 8, 4096
	frag := func(collective bool) float64 {
		k, comm, _ := rig(t, nodes, size)
		reqs := make([]Range, nodes)
		for i := range reqs {
			reqs[i] = Range{Off: int64(i) * (size / nodes), Len: size / nodes}
		}
		// Each rank's request further fragments into 8 sub-reads when
		// independent (simulating per-chunk reads).
		var res *Result
		if collective {
			res = comm.CollectiveRead("/f", reqs, 2)
		} else {
			sub := make([]Range, nodes)
			copy(sub, reqs)
			res = comm.IndependentRead("/f", sub)
			// Issue 7 more fragmented rounds to model chunk-at-a-time reads.
			for r := 1; r < 8; r++ {
				for i := range sub {
					sub[i] = Range{Off: reqs[i].Off + int64(r)*(size/nodes/8), Len: size / nodes / 8}
				}
				res = comm.IndependentRead("/f", sub)
			}
		}
		k.Run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return k.Now()
	}
	ind, coll := frag(false), frag(true)
	if coll >= ind {
		t.Fatalf("collective (%v) should beat fragmented independent (%v)", coll, ind)
	}
}

func TestCollectiveEmptyRequests(t *testing.T) {
	k, comm, _ := rig(t, 3, 256)
	res := comm.CollectiveRead("/f", make([]Range, 3), 0)
	k.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, d := range res.Data {
		if d != nil {
			t.Fatal("no data expected")
		}
	}
}

func TestIndependentReadError(t *testing.T) {
	k, comm, _ := rig(t, 2, 256)
	res := comm.IndependentRead("/missing", ContiguousSplit(256, 2))
	k.Run()
	if res.Err == nil {
		t.Fatal("missing file should surface an error")
	}
}

func TestContiguousSplit(t *testing.T) {
	rs := ContiguousSplit(100, 3)
	if len(rs) != 3 {
		t.Fatalf("len = %d", len(rs))
	}
	var total int64
	prevEnd := int64(0)
	for _, r := range rs {
		if r.Off != prevEnd {
			t.Fatalf("gap at %d", r.Off)
		}
		prevEnd = r.Off + r.Len
		total += r.Len
	}
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	// More ranks than bytes: trailing ranks get zero-length requests.
	rs = ContiguousSplit(2, 4)
	if rs[0].Len+rs[1].Len+rs[2].Len+rs[3].Len != 2 {
		t.Fatal("tiny split must still cover the file")
	}
}

func TestMergeRanges(t *testing.T) {
	in := []Range{{Off: 10, Len: 5}, {Off: 0, Len: 4}, {Off: 14, Len: 6}, {Off: 4, Len: 2}, {Off: 30, Len: 0}}
	out := ioengine.Merge(in)
	want := []Range{{Off: 0, Len: 6}, {Off: 10, Len: 10}}
	if len(out) != len(want) {
		t.Fatalf("merged = %+v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, out[i], want[i])
		}
	}
}

// TestMergeRangesProperty: the ranges ioengine.Merge coalesces a
// collective's requests into are sorted, disjoint, and cover
// exactly the union of the inputs.
func TestMergeRangesProperty(t *testing.T) {
	f := func(offs [6]uint8, lens [6]uint8) bool {
		in := make([]Range, 6)
		covered := map[int64]bool{}
		for i := range in {
			in[i] = Range{Off: int64(offs[i]), Len: int64(lens[i]) % 16}
			for b := in[i].Off; b < in[i].Off+in[i].Len; b++ {
				covered[b] = true
			}
		}
		out := ioengine.Merge(in)
		var prevEnd int64 = -1
		outCovered := map[int64]bool{}
		for _, r := range out {
			if r.Off <= prevEnd || r.Len <= 0 {
				return false
			}
			prevEnd = r.Off + r.Len - 1
			for b := r.Off; b < r.Off+r.Len; b++ {
				outCovered[b] = true
			}
		}
		if len(covered) != len(outCovered) {
			return false
		}
		for b := range covered {
			if !outCovered[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreReadersRaiseAggregateBandwidth(t *testing.T) {
	// Doubling ranks over a wide-striped file should cut wall time, up to
	// OST saturation — the shape of the paper's Figure 6.
	elapsed := func(nodes int) float64 {
		k, comm, _ := rig(t, nodes, 8192)
		res := comm.IndependentRead("/f", ContiguousSplit(8192, nodes))
		k.Run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return k.Now()
	}
	t1, t4 := elapsed(1), elapsed(4)
	if t4 >= t1 {
		t.Fatalf("4 readers (%v) should beat 1 reader (%v)", t4, t1)
	}
}

func TestCollectiveWriteCorrectness(t *testing.T) {
	k, comm, _ := rig(t, 4, 16)
	// Each rank writes 256 bytes of its own pattern into a fresh file.
	reqs := make([]Range, 4)
	data := make([][]byte, 4)
	for i := range reqs {
		reqs[i] = Range{Off: int64(i) * 256, Len: 256}
		data[i] = bytes.Repeat([]byte{byte('A' + i)}, 256)
	}
	var res *Result
	k.Go("setup", func(p *sim.Proc) {
		c := comm.ranks[0].Client
		if _, err := c.Create(p, "/out", 0, 0); err != nil {
			t.Error(err)
			return
		}
		res = comm.CollectiveWrite("/out", reqs, data, 2)
	})
	k.Run()
	if res == nil || res.Err != nil {
		t.Fatalf("write failed: %+v", res)
	}
	var got []byte
	k.Go("check", func(p *sim.Proc) { got, _ = comm.ranks[0].Client.ReadAt(p, "/out", 0, 1024) })
	k.Run()
	if len(got) != 1024 {
		t.Fatalf("file = %d bytes", len(got))
	}
	for i := 0; i < 4; i++ {
		if got[i*256] != byte('A'+i) || got[i*256+255] != byte('A'+i) {
			t.Fatalf("rank %d region corrupted", i)
		}
	}
	if res.Elapsed() <= 0 {
		t.Fatal("elapsed must be positive")
	}
}

func TestCollectiveWriteValidation(t *testing.T) {
	k, comm, _ := rig(t, 2, 16)
	var res *Result
	k.Go("driver", func(p *sim.Proc) {
		comm.ranks[0].Client.Create(p, "/w", 0, 0)
		res = comm.CollectiveWrite("/w", []Range{{Off: 0, Len: 4}, {}}, [][]byte{{1, 2}, nil}, 0)
	})
	k.Run()
	if res.Err == nil {
		t.Fatal("buffer/request mismatch should fail")
	}
}

func TestCollectiveWriteEmpty(t *testing.T) {
	k, comm, _ := rig(t, 2, 16)
	var res *Result
	k.Go("driver", func(p *sim.Proc) {
		res = comm.CollectiveWrite("/nope", make([]Range, 2), make([][]byte, 2), 0)
	})
	k.Run()
	if res.Err != nil {
		t.Fatal("all-empty write should be a no-op")
	}
}

// Elapsed returns the operation's virtual duration.
func (r *Result) Elapsed() float64 { return r.End - r.Start }
