// Package mtcp is the lower layer of the two-layer checkpointing
// design (§4.1): single-process checkpoint and restore.  It knows how
// to capture a process's memory areas and thread records into a
// versioned binary image, charge realistic time for writing/reading
// that image through the storage and compression models, and rebuild
// process memory from an image.  Everything distributed — sockets,
// coordination, restart orchestration — belongs to the DMTCP layer
// above, which talks to this package through a small API, mirroring
// the paper's MTCP/DMTCP split.
package mtcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
)

// Magic and Version identify the image format.  Version 2 added
// per-area chunk write-versions for the incremental store; version 3
// added the stripped-payload length for lazy (post-copy) restores.
const (
	Magic   = "MTCPIMG1"
	Version = 3
)

// ErrBadImage reports a corrupt or incompatible image.
var ErrBadImage = errors.New("mtcp: bad image")

// AreaRecord is one serialized VM area.
type AreaRecord struct {
	Name       string
	Kind       kernel.AreaKind
	Bytes      int64
	Entropy    float64
	ZeroFrac   float64
	Payload    []byte
	ShmBacking string // non-empty for shared mappings

	// PayloadBytes is the length of the payload this record carried
	// before a manifest header stripped it (headerBytes).  A lazy
	// restore sizes its install buffers from it; zero for records that
	// still hold their payload.
	PayloadBytes int64

	// ChunkVers are the kernel's per-chunk write versions at capture
	// time (kernel.CkptChunkBytes granularity); the content-addressed
	// store keys chunk identity on them, and restart reinstalls them
	// so later checkpoints keep deduplicating across a restart.
	ChunkVers []uint64
}

// Class reconstructs the compressibility class.
func (a *AreaRecord) Class() model.MemClass {
	return model.MemClass{Entropy: a.Entropy, ZeroFrac: a.ZeroFrac}
}

// ThreadRecord is one serialized user thread.  ContFD/ContData carry
// an in-progress send continuation (the bytes a thread blocked inside
// write() had not yet pushed into the kernel), which restart completes
// so streams stay byte-exact.
type ThreadRecord struct {
	Role     string
	ContFD   int32 // -1 when no continuation
	ContData []byte
}

// Image is a whole single-process checkpoint.
type Image struct {
	Hostname string
	ProgName string
	Args     []string
	Env      map[string]string
	RealPid  int64
	VirtPid  int64

	Areas   []AreaRecord
	Threads []ThreadRecord

	// Ext holds upper-layer sections keyed by name; DMTCP stores its
	// connection-information table and descriptor table here.  MTCP
	// treats them as opaque bytes (the two-layer API of §4.1).
	Ext map[string][]byte
}

// Capture snapshots a process into an image.  The caller (the
// checkpoint manager) must have suspended the process's user threads.
func Capture(p *kernel.Process, virtPid kernel.Pid) *Image {
	p.FlushState()
	img := &Image{
		Hostname: p.Node.Hostname,
		ProgName: p.ProgName,
		Args:     append([]string(nil), p.Args...),
		Env:      map[string]string{},
		RealPid:  int64(p.Pid),
		VirtPid:  int64(virtPid),
		Ext:      map[string][]byte{},
	}
	for k, v := range p.Env {
		img.Env[k] = v
	}
	for _, a := range p.Mem.Areas() {
		rec := AreaRecord{
			Name:     a.Name,
			Kind:     a.Kind,
			Bytes:    a.Bytes,
			Entropy:  a.Class.Entropy,
			ZeroFrac: a.Class.ZeroFrac,
		}
		if a.Seg != nil {
			rec.ShmBacking = a.Seg.Backing
			rec.Payload = append([]byte(nil), a.Seg.Payload...)
		} else {
			rec.Payload = append([]byte(nil), a.Payload...)
		}
		rec.ChunkVers = a.ChunkVersions()
		rec.PayloadBytes = int64(len(rec.Payload))
		img.Areas = append(img.Areas, rec)
	}
	for _, task := range p.UserTasks() {
		tr := ThreadRecord{Role: task.Role, ContFD: -1}
		if cont := task.SendContinuation(); cont != nil {
			tr.ContFD = int32(cont.FD)
			tr.ContData = cont.Remaining
		}
		img.Threads = append(img.Threads, tr)
	}
	return img
}

// LogicalBytes is the uncompressed memory footprint the image
// represents — what an uncompressed checkpoint file would occupy.
func (img *Image) LogicalBytes() int64 {
	var n int64 = 4096 // headers
	for _, a := range img.Areas {
		n += a.Bytes
	}
	for _, e := range img.Ext {
		n += int64(len(e))
	}
	return n
}

// CompressedBytes is the modeled gzip output size of the image.
func (img *Image) CompressedBytes(p *model.Params) int64 {
	var n int64 = 2048
	for _, a := range img.Areas {
		n += p.CompressedSize(a.Bytes, a.Class())
	}
	for _, e := range img.Ext {
		n += int64(len(e)) / 2
	}
	return n
}

// Encode serializes the image with a CRC32 trailer.
func (img *Image) Encode() []byte {
	var e bin.Encoder
	e.B = append(e.B, Magic...)
	e.U32(Version)
	e.Str(img.Hostname)
	e.Str(img.ProgName)
	e.U32(uint32(len(img.Args)))
	for _, a := range img.Args {
		e.Str(a)
	}
	e.U32(uint32(len(img.Env)))
	for _, k := range sortedKeys(img.Env) {
		e.Str(k)
		e.Str(img.Env[k])
	}
	e.I64(img.RealPid)
	e.I64(img.VirtPid)
	e.U32(uint32(len(img.Areas)))
	for _, a := range img.Areas {
		e.Str(a.Name)
		e.U32(uint32(a.Kind))
		e.I64(a.Bytes)
		e.F64(a.Entropy)
		e.F64(a.ZeroFrac)
		e.Bytes(a.Payload)
		e.Str(a.ShmBacking)
		e.I64(a.PayloadBytes)
		e.U32(uint32(len(a.ChunkVers)))
		for _, v := range a.ChunkVers {
			e.U64(v)
		}
	}
	e.U32(uint32(len(img.Threads)))
	for _, t := range img.Threads {
		e.Str(t.Role)
		e.U32(uint32(t.ContFD))
		e.Bytes(t.ContData)
	}
	e.U32(uint32(len(img.Ext)))
	for _, k := range sortedKeys(img.Ext) {
		e.Str(k)
		e.Bytes(img.Ext[k])
	}
	sum := crc32.ChecksumIEEE(e.B)
	e.U32(sum)
	return e.B
}

// Decode parses an encoded image, verifying magic, version and CRC.
func Decode(b []byte) (*Image, error) {
	if len(b) < len(Magic)+8 {
		return nil, ErrBadImage
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	d := &bin.Decoder{B: body[len(Magic):]}
	if v := d.U32(); v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadImage, v)
	}
	img := &Image{Env: map[string]string{}, Ext: map[string][]byte{}}
	img.Hostname = d.Str()
	img.ProgName = d.Str()
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		img.Args = append(img.Args, d.Str())
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		k := d.Str()
		img.Env[k] = d.Str()
	}
	img.RealPid = d.I64()
	img.VirtPid = d.I64()
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		var a AreaRecord
		a.Name = d.Str()
		a.Kind = kernel.AreaKind(d.U32())
		a.Bytes = d.I64()
		a.Entropy = d.F64()
		a.ZeroFrac = d.F64()
		a.Payload = d.Bytes()
		a.ShmBacking = d.Str()
		a.PayloadBytes = d.I64()
		for j, k := 0, int(d.U32()); j < k && d.Err == nil; j++ {
			a.ChunkVers = append(a.ChunkVers, d.U64())
		}
		img.Areas = append(img.Areas, a)
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		var t ThreadRecord
		t.Role = d.Str()
		t.ContFD = int32(d.U32())
		t.ContData = d.Bytes()
		img.Threads = append(img.Threads, t)
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		k := d.Str()
		img.Ext[k] = d.Bytes()
	}
	if d.Err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, d.Err)
	}
	return img, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
