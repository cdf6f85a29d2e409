package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scidp/internal/sim"
)

func testConfig() Config {
	c := DefaultConfig()
	c.OSTBW = 100
	c.OSSNICBW = 10000
	c.FabricBW = 10000
	c.DefaultStripeSize = 64
	c.DefaultStripeCount = 4
	c.OSTLatency = 0
	c.MDSLatency = 0
	return c
}

func TestPutGetRoundtrip(t *testing.T) {
	fs := New(sim.NewKernel(), testConfig())
	data := []byte("hello parallel world")
	fs.Put("/a/b.nc", data)
	if got := fs.Get("/a/b.nc"); !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	if fs.Get("/missing") != nil {
		t.Fatal("Get of missing file should be nil")
	}
}

func TestSimReadMatchesData(t *testing.T) {
	k := sim.NewKernel()
	fs := New(k, testConfig())
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	fs.Put("/f", data)
	c := fs.NewClient()
	var got []byte
	k.Go("r", func(p *sim.Proc) {
		var err error
		got, err = c.ReadAt(p, "/f", 100, 300)
		if err != nil {
			t.Errorf("ReadAt: %v", err)
		}
	})
	k.Run()
	if !bytes.Equal(got, data[100:400]) {
		t.Fatal("sim read returned wrong bytes")
	}
}

func TestReadPastEOFTruncates(t *testing.T) {
	k := sim.NewKernel()
	fs := New(k, testConfig())
	fs.Put("/f", []byte("0123456789"))
	c := fs.NewClient()
	k.Go("r", func(p *sim.Proc) {
		got, err := c.ReadAt(p, "/f", 8, 100)
		if err != nil || string(got) != "89" {
			t.Errorf("short read = %q, %v; want \"89\"", got, err)
		}
		got, err = c.ReadAt(p, "/f", 20, 10)
		if err != nil || got != nil {
			t.Errorf("read past EOF = %q, %v; want nil", got, err)
		}
		if _, err := c.ReadAt(p, "/f", -1, 10); err == nil {
			t.Error("negative offset should error")
		}
	})
	k.Run()
}

func TestStripingAggregatesBandwidth(t *testing.T) {
	// One file striped over 4 OSTs at 100 B/s each: a 400 B read should
	// take ~1 s (parallel), not 4 s (serial).
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.DefaultStripeSize = 100
	cfg.DefaultStripeCount = 4
	fs := New(k, cfg)
	fs.Put("/wide", make([]byte, 400))
	c := fs.NewClient()
	var end float64
	k.Go("r", func(p *sim.Proc) {
		if _, err := c.ReadAt(p, "/wide", 0, 400); err != nil {
			t.Error(err)
		}
		end = p.Now()
	})
	k.Run()
	if end < 0.99 || end > 1.2 {
		t.Fatalf("striped read took %v s, want ~1.0", end)
	}
}

func TestStripeCountOneIsSerial(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	fs := New(k, cfg)
	fs.PutStriped("/narrow", make([]byte, 400), 100, 1)
	c := fs.NewClient()
	var end float64
	k.Go("r", func(p *sim.Proc) {
		c.ReadAt(p, "/narrow", 0, 400)
		end = p.Now()
	})
	k.Run()
	if end < 3.99 || end > 4.1 {
		t.Fatalf("single-stripe read took %v s, want ~4.0", end)
	}
}

func TestConcurrentReadersShareOST(t *testing.T) {
	k := sim.NewKernel()
	cfg := testConfig()
	fs := New(k, cfg)
	fs.PutStriped("/f", make([]byte, 100), 100, 1)
	c := fs.NewClient()
	var ends []float64
	for i := 0; i < 2; i++ {
		k.Go("r", func(p *sim.Proc) {
			c.ReadAt(p, "/f", 0, 100)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	for _, e := range ends {
		if e < 1.99 || e > 2.1 {
			t.Fatalf("two readers on one OST: end %v, want ~2.0", e)
		}
	}
}

func TestWriteAtExtendsAndOverwrites(t *testing.T) {
	k := sim.NewKernel()
	fs := New(k, testConfig())
	fs.Put("/f", []byte("abcdef"))
	c := fs.NewClient()
	k.Go("w", func(p *sim.Proc) {
		if err := c.WriteAt(p, "/f", []byte("XY"), 2); err != nil {
			t.Error(err)
		}
		if err := c.WriteAt(p, "/f", []byte("Z"), 9); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	want := []byte("abXYef\x00\x00\x00Z")
	if got := fs.Get("/f"); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// TestPutSharesUntilFirstWrite: Put keeps the caller's buffer (Get aliases
// it), and the first WriteAt — in range or extending, even into the
// buffer's spare capacity — clones it, so the caller's bytes never change.
func TestPutSharesUntilFirstWrite(t *testing.T) {
	for _, off := range []int64{2, 6, 9} {
		k := sim.NewKernel()
		fs := New(k, testConfig())
		buf := append(make([]byte, 0, 16), "abcdef"...)
		fs.Put("/f", buf)
		if got := fs.Get("/f"); len(got) != 6 || &got[0] != &buf[0] {
			t.Fatal("Put must store the caller's buffer, not a copy")
		}
		c := fs.NewClient()
		k.Go("w", func(p *sim.Proc) {
			if err := c.WriteAt(p, "/f", []byte("XY"), off); err != nil {
				t.Error(err)
			}
		})
		k.Run()
		if got := string(buf[:cap(buf)][:8]); got != "abcdef\x00\x00" {
			t.Errorf("WriteAt at %d changed the caller's buffer to %q", off, got)
		}
		want := map[int64]string{2: "abXYef", 6: "abcdefXY", 9: "abcdef\x00\x00\x00XY"}[off]
		if got := string(fs.Get("/f")); got != want {
			t.Errorf("file after WriteAt at %d = %q, want %q", off, got, want)
		}
	}
}

func TestCreateAppendList(t *testing.T) {
	k := sim.NewKernel()
	fs := New(k, testConfig())
	c := fs.NewClient()
	k.Go("w", func(p *sim.Proc) {
		if _, err := c.Create(p, "/dir/a", 0, 0); err != nil {
			t.Error(err)
		}
		if _, err := c.Create(p, "/dir/a", 0, 0); err == nil {
			t.Error("duplicate create should fail")
		}
		c.Create(p, "/dir/b", 0, 0)
		c.Create(p, "/dir/sub/c", 0, 0)
		c.WriteAt(p, "/dir/a", []byte("xx"), 0)
		c.WriteAt(p, "/dir/a", []byte("yy"), 2)
		ls, err := c.List(p, "/dir")
		if err != nil {
			t.Error(err)
		}
		if len(ls) != 2 || ls[0] != "/dir/a" || ls[1] != "/dir/b" {
			t.Errorf("List = %v, want [/dir/a /dir/b]", ls)
		}
		sz, _ := c.Stat(p, "/dir/a")
		if sz != 4 {
			t.Errorf("size = %d, want 4", sz)
		}
	})
	k.Run()
	if got := fs.Get("/dir/a"); string(got) != "xxyy" {
		t.Fatalf("appended = %q", got)
	}
}

func TestReaderAdapter(t *testing.T) {
	k := sim.NewKernel()
	fs := New(k, testConfig())
	data := []byte("0123456789abcdef")
	fs.Put("/f", data)
	c := fs.NewClient()
	k.Go("r", func(p *sim.Proc) {
		r, err := c.OpenReader(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		if r.Size() != 16 {
			t.Errorf("Size = %d", r.Size())
		}
		got, err := r.ReadAt(4, 4)
		if err != nil || string(got) != "4567" {
			t.Errorf("ReadAt = %q, %v", got, err)
		}
	})
	k.Run()
}

// TestSegmentsCoverRange: for random layouts and ranges, the per-OST
// segment sizes must sum exactly to the requested length, and each
// target's total must be the stripe-order sum a map keyed by target
// gives, in first-reached order.
func TestSegmentsCoverRange(t *testing.T) {
	fs := New(sim.NewKernel(), testConfig())
	c := fs.NewClient()
	f := func(stripeSize16 uint8, stripeCount8 uint8, off16, n16 uint16) bool {
		stripeSize := int64(stripeSize16)%512 + 1
		stripeCount := int(stripeCount8)%len(fs.osts) + 1
		off := int64(off16)
		n := int64(n16)%4096 + 1
		file := &File{Path: "/q", StripeSize: stripeSize, StripeCount: stripeCount}
		file.data = make([]byte, off+n)
		perOST := map[*ost]float64{}
		var order []*ost
		for cur := off; cur < off+n; {
			idx := cur / stripeSize
			next := min((idx+1)*stripeSize, off+n)
			o := fs.ostFor(file, idx)
			if _, seen := perOST[o]; !seen {
				order = append(order, o)
			}
			perOST[o] += float64(next - cur)
			cur = next
		}
		var total float64
		parts, osts, _ := c.segments(file, off, n, false)
		if len(parts) != len(osts) || !slices.Equal(osts, order) {
			return false
		}
		for i, part := range parts {
			if part.Bytes != perOST[osts[i]] || part.Res[0] != osts[i].disk {
				return false
			}
			total += part.Bytes
		}
		return total == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScaledPreservesRatios: scaling the config must keep the ratio of a
// striped read's time invariant (both data and bandwidth scale together).
func TestScaledPreservesRatios(t *testing.T) {
	elapsed := func(cfg Config, size int64) float64 {
		k := sim.NewKernel()
		fs := New(k, cfg)
		fs.Put("/f", make([]byte, size))
		c := fs.NewClient()
		var end float64
		k.Go("r", func(p *sim.Proc) {
			c.ReadAt(p, "/f", 0, size)
			end = p.Now()
		})
		k.Run()
		return end
	}
	cfg := testConfig()
	base := elapsed(cfg, 4096)
	scaled := elapsed(cfg.Scaled(8), 4096/8)
	if diff := base - scaled; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("scaled time %v != base time %v", scaled, base)
	}
}

func TestManyFilesRoundRobinDistinctOSTs(t *testing.T) {
	fs := New(sim.NewKernel(), testConfig())
	starts := map[int]bool{}
	for i := 0; i < len(fs.osts); i++ {
		f := fs.Put(fmt.Sprintf("/f%d", i), []byte("x"))
		starts[f.startOST] = true
	}
	if len(starts) < len(fs.osts)/4 {
		t.Fatalf("allocation not spreading: %d distinct start OSTs", len(starts))
	}
}

func TestFuzzReadWriteConsistency(t *testing.T) {
	k := sim.NewKernel()
	fs := New(k, testConfig())
	rng := rand.New(rand.NewSource(7))
	ref := make([]byte, 2048)
	fs.Put("/f", make([]byte, 2048))
	c := fs.NewClient()
	k.Go("rw", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			off := int64(rng.Intn(2000))
			n := int64(rng.Intn(48) + 1)
			if rng.Intn(2) == 0 {
				buf := make([]byte, n)
				rng.Read(buf)
				c.WriteAt(p, "/f", buf, off)
				copy(ref[off:], buf)
			} else {
				got, err := c.ReadAt(p, "/f", off, n)
				if err != nil {
					t.Errorf("read: %v", err)
				}
				if !bytes.Equal(got, ref[off:off+int64(len(got))]) {
					t.Errorf("iteration %d: read mismatch at %d+%d", i, off, n)
				}
			}
		}
	})
	k.Run()
}
