package kernel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bin"
)

// Framed-message helpers shared by the simulated wire protocols (ssh,
// MPD, coordinator, MPI): 4-byte big-endian length followed by the
// payload.

// MaxFrame bounds a single frame to keep buggy peers from wedging a
// reader.
const MaxFrame = 64 << 20

// SendFrame writes one length-prefixed frame.
func (t *Task) SendFrame(fd int, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("kernel: frame too large (%d bytes)", len(payload))
	}
	hdr := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
	_, err := t.Send(fd, append(hdr, payload...))
	return err
}

// RecvFrame reads one length-prefixed frame.
func (t *Task) RecvFrame(fd int) ([]byte, error) {
	hdr, err := t.RecvN(fd, 4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("kernel: oversized frame (%d bytes)", n)
	}
	if n == 0 {
		return nil, nil
	}
	return t.RecvN(fd, int(n))
}

// EncodeStrings flattens a string list into a frame payload: a u32
// count, then each string u32-length-prefixed.
func EncodeStrings(ss []string) []byte {
	var e bin.Encoder
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
	return e.B
}

// DecodeStrings reverses EncodeStrings.
func DecodeStrings(b []byte) ([]string, error) {
	d := &bin.Decoder{B: b}
	var out []string
	for i, n := uint32(0), d.U32(); i < n && d.Err == nil; i++ {
		out = append(out, d.Str())
	}
	if d.Err != nil {
		return nil, fmt.Errorf("kernel: string list: %w", d.Err)
	}
	return out, nil
}

// EncodeEnv flattens an environment map deterministically.
func EncodeEnv(env map[string]string) []byte {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	// Insertion sort keeps this dependency-free and deterministic.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	flat := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		flat = append(flat, k, env[k])
	}
	return EncodeStrings(flat)
}

// DecodeEnv reverses EncodeEnv.
func DecodeEnv(b []byte) (map[string]string, error) {
	flat, err := DecodeStrings(b)
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("kernel: odd env list")
	}
	env := make(map[string]string, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		env[flat[i]] = flat[i+1]
	}
	return env, nil
}
