package hdfs

import (
	"bytes"
	"fmt"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/sim"
)

// TestWritersAliasAndClip pins the write-once contract on both writers:
// every block is a view of the caller's buffer at its file offset, with
// its capacity clipped so a reader's append cannot run into the next
// block, and an empty file still gets an inode.
func TestWritersAliasAndClip(t *testing.T) {
	writers := map[string]func(fs *FS, p *sim.Proc, cl *cluster.Cluster, path string, data []byte) error{
		"WriteFile": func(fs *FS, p *sim.Proc, cl *cluster.Cluster, path string, data []byte) error {
			return fs.WriteFile(p, cl.Node(0), path, data)
		},
		"Put": func(fs *FS, _ *sim.Proc, _ *cluster.Cluster, path string, data []byte) error {
			_, err := fs.Put(path, data)
			return err
		},
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel()
			cl := testCluster(k, 3)
			fs := New(k, cl, testConfig()) // 128-byte blocks
			data := make([]byte, 300, 400)
			for i := range data {
				data[i] = byte(i)
			}
			run(k, func(p *sim.Proc) {
				if err := write(fs, p, cl, "/f", data); err != nil {
					t.Fatal(err)
				}
				if err := write(fs, p, cl, "/empty", nil); err != nil {
					t.Fatal(err)
				}
			})
			n, err := fs.Lookup("/f")
			if err != nil {
				t.Fatal(err)
			}
			wantSizes := []int{128, 128, 44}
			if len(n.Blocks) != len(wantSizes) {
				t.Fatalf("blocks = %d, want %d", len(n.Blocks), len(wantSizes))
			}
			off := 0
			for i, b := range n.Blocks {
				d := b.Data()
				if len(d) != wantSizes[i] || b.Size != int64(wantSizes[i]) {
					t.Fatalf("block %d: len %d size %d, want %d", i, len(d), b.Size, wantSizes[i])
				}
				if &d[0] != &data[off] {
					t.Errorf("block %d is a copy, want a view of the writer's buffer at %d", i, off)
				}
				if cap(d) != len(d) {
					t.Errorf("block %d: cap %d != len %d: an append could reach the next block", i, cap(d), len(d))
				}
				off += len(d)
			}
			if e, err := fs.Lookup("/empty"); err != nil || e.Dir || len(e.Blocks) != 0 {
				t.Fatalf("empty file inode = %+v, %v", e, err)
			}
		})
	}
}

// TestReadFileSharesSingleBlock: a one-block file is returned as the block
// itself; a multi-block file is assembled into one buffer of its size.
func TestReadFileSharesSingleBlock(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 2)
	fs := New(k, cl, testConfig())
	small := bytes.Repeat([]byte{7}, 100)
	large := bytes.Repeat([]byte{9}, 300)
	fs.Put("/small", small)
	fs.Put("/large", large)
	run(k, func(p *sim.Proc) {
		got, err := fs.ReadFile(p, cl.Node(0), "/small")
		if err != nil || len(got) != 100 || &got[0] != &small[0] {
			t.Errorf("one-block ReadFile = %d bytes, %v; want the block itself", len(got), err)
		}
		got, err = fs.ReadFile(p, cl.Node(0), "/large")
		if err != nil || !bytes.Equal(got, large) || cap(got) != 300 {
			t.Errorf("multi-block ReadFile = %d bytes (cap %d), %v; want 300 presized", len(got), cap(got), err)
		}
		if &got[0] == &large[0] {
			t.Error("multi-block ReadFile must assemble a new buffer")
		}
	})
}

// BenchmarkHDFSWriteRead measures the real cost of the HDFS model's four
// byte paths over 32 files of one 1 MiB block each.
func BenchmarkHDFSWriteRead(b *testing.B) {
	const files, size = 32, 1 << 20
	data := bytes.Repeat([]byte{0xA5}, size)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/bench/f%02d", i)
	}
	// build writes the files from node i%4, so block i's replica is there.
	build := func() (*sim.Kernel, *cluster.Cluster, *FS) {
		k := sim.NewKernel()
		cl := cluster.New(k, "bd", cluster.Config{Nodes: 4, SlotsPerNode: 2, DiskBW: 1e9, NICBW: 1e9, FabricBW: 1e10})
		fs := New(k, cl, Config{BlockSize: size, Replication: 1, NNOpsPerSec: 1e9})
		run(k, func(p *sim.Proc) {
			for i, path := range paths {
				if err := fs.WriteFile(p, cl.Node(i%4), path, data); err != nil {
					b.Fatal(err)
				}
			}
		})
		return k, cl, fs
	}
	b.Run("WriteFile", func(b *testing.B) {
		b.SetBytes(files * size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build()
		}
	})
	block := func(fs *FS, i int) *Block {
		n, err := fs.Lookup(paths[i])
		if err != nil {
			b.Fatal(err)
		}
		return n.Blocks[0]
	}
	reads := []struct {
		name string
		read func(p *sim.Proc, cl *cluster.Cluster, fs *FS, i int) ([]byte, error)
	}{
		{"ReadBlockLocal", func(p *sim.Proc, cl *cluster.Cluster, fs *FS, i int) ([]byte, error) {
			return fs.ReadBlock(p, cl.Node(i%4), block(fs, i))
		}},
		{"ReadBlockRemote", func(p *sim.Proc, cl *cluster.Cluster, fs *FS, i int) ([]byte, error) {
			return fs.ReadBlock(p, cl.Node((i+1)%4), block(fs, i))
		}},
		{"ReadFile", func(p *sim.Proc, cl *cluster.Cluster, fs *FS, i int) ([]byte, error) {
			return fs.ReadFile(p, cl.Node(i%4), paths[i])
		}},
	}
	for _, r := range reads {
		b.Run(r.name, func(b *testing.B) {
			k, cl, fs := build()
			b.SetBytes(files * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(k, func(p *sim.Proc) {
					for f := range paths {
						if got, err := r.read(p, cl, fs, f); err != nil || len(got) != size {
							b.Fatalf("read %s = %d bytes, %v", paths[f], len(got), err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkWriteFilePipeline is one 8 MiB file of 1 MiB blocks written
// from node 0 with three replicas on a four-node cluster: every block is
// a three-hop replication pipeline, two of its hops across the fabric.
// allocs/op counts what WriteFile builds per block and per hop.
func BenchmarkWriteFilePipeline(b *testing.B) {
	const blocks, size = 8, 1 << 20
	data := make([]byte, blocks*size)
	paths := make([]string, b.N)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pipe/f%d", i)
	}
	k := sim.NewKernel()
	cl := cluster.New(k, "bd", cluster.Config{Nodes: 4, SlotsPerNode: 2, DiskBW: 1e9, NICBW: 1e9, FabricBW: 1e10})
	fs := New(k, cl, Config{BlockSize: size, Replication: 3, NNOpsPerSec: 1e9})
	b.SetBytes(blocks * size)
	b.ReportAllocs()
	b.ResetTimer()
	run(k, func(p *sim.Proc) {
		for _, path := range paths {
			if err := fs.WriteFile(p, cl.Node(0), path, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadBlock is one warm reader's ReadBlock of a 1 MiB block on a
// four-node cluster: from the replica's own disk (local) and across the
// fabric from node 0's (remote). One op is one read: its replica choice,
// its flow and the bytes it returns; allocs/op counts what a read builds.
func BenchmarkReadBlock(b *testing.B) {
	const size = 1 << 20
	for _, c := range []struct {
		name   string
		reader int
	}{{"local", 0}, {"remote", 1}} {
		b.Run(c.name, func(b *testing.B) {
			k := sim.NewKernel()
			cl := cluster.New(k, "bd", cluster.Config{Nodes: 4, SlotsPerNode: 2, DiskBW: 1e9, NICBW: 1e9, FabricBW: 1e10})
			fs := New(k, cl, Config{BlockSize: size, Replication: 1, NNOpsPerSec: 1e9})
			run(k, func(p *sim.Proc) {
				if err := fs.WriteFile(p, cl.Node(0), "/f", make([]byte, size)); err != nil {
					b.Fatal(err)
				}
				n, err := fs.Lookup("/f")
				if err != nil {
					b.Fatal(err)
				}
				blk, reader := n.Blocks[0], cl.Node(c.reader)
				if _, err := fs.ReadBlock(p, reader, blk); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fs.ReadBlock(p, reader, blk); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
