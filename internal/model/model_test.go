package model

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultSane(t *testing.T) {
	p := Default()
	if p.DiskAbsorbBW < p.DiskPhysicalBW {
		t.Fatal("cache absorb rate below physical rate")
	}
	if p.GunzipBW <= p.GzipBW {
		t.Fatal("gunzip must be faster than gzip (restart < checkpoint)")
	}
	if p.SocketBufBytes > 256*KB {
		t.Fatal("socket buffers should be tens of KB (§5.4)")
	}
}

func TestForkCostScalesWithRSS(t *testing.T) {
	p := Default()
	small := p.ForkCost(1 * MB)
	big := p.ForkCost(106 * MB)
	if big <= small {
		t.Fatal("fork cost must grow with RSS")
	}
	// Table 1a anchor: ≈106 MB process forks in ≈60 ms.
	if big < 40*time.Millisecond || big > 90*time.Millisecond {
		t.Fatalf("fork of 106MB = %v, want ≈60ms", big)
	}
}

func TestCompressRatioAnchors(t *testing.T) {
	p := Default()
	if r := p.CompressRatio(ClassRandom); r < 0.95 {
		t.Fatalf("random data ratio %f, want ≈1", r)
	}
	if r := p.CompressRatio(ClassSparseZero); r > 0.08 {
		t.Fatalf("zero-heavy ratio %f, want tiny (IS anomaly)", r)
	}
	if r := p.CompressRatio(ClassData); r < 0.2 || r > 0.5 {
		t.Fatalf("typical data ratio %f, want ≈0.25–0.45", r)
	}
}

func TestZeroPagesCompressFast(t *testing.T) {
	p := Default()
	n := 100 * MB
	tZero := p.CompressTime(n, ClassSparseZero)
	tData := p.CompressTime(n, ClassNumeric)
	if tZero >= tData/3 {
		t.Fatalf("zero-heavy compress %v not ≪ numeric %v", tZero, tData)
	}
}

func TestGunzipFasterThanGzip(t *testing.T) {
	p := Default()
	n := 100 * MB
	if p.DecompressTime(n, ClassData) >= p.CompressTime(n, ClassData) {
		t.Fatal("decompression should be faster than compression")
	}
}

// Property: ratio is within (0, 1.05], size and times are monotonic in
// n, for arbitrary classes.
func TestCompressionModelProperties(t *testing.T) {
	p := Default()
	prop := func(e, z float64, a, b uint32) bool {
		c := MemClass{Entropy: clamp01(e), ZeroFrac: clamp01(z)}
		r := p.CompressRatio(c)
		if r <= 0 || r > 1.05 {
			return false
		}
		n1, n2 := int64(a%(1<<28)), int64(b%(1<<28))
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		if p.CompressedSize(n1, c) > p.CompressedSize(n2, c) {
			return false
		}
		if p.CompressTime(n1, c) > p.CompressTime(n2, c) {
			return false
		}
		if p.DecompressTime(n1, c) > p.DecompressTime(n2, c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTime(t *testing.T) {
	d := TransferTime(100*time.Microsecond, float64(100*MB), 100*MB)
	if d < time.Second || d > time.Second+time.Millisecond {
		t.Fatalf("transfer = %v, want ≈1s", d)
	}
}

func TestQoSIdle(t *testing.T) {
	p := Default()
	work := 40 * time.Millisecond
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{-0.5, 0},
		{0, 0},
		{1, 0},
		{1.5, 0},
		{0.5, work},
		{0.25, 3 * work},
	} {
		if got := p.QoSIdle(work, tc.q); got != tc.want {
			t.Errorf("QoSIdle(%v, %v) = %v, want %v", work, tc.q, got, tc.want)
		}
	}
}
