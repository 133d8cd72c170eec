package store

import (
	"bytes"
	"math"
	"testing"

	"lagraph/internal/stream"
)

// FuzzDecodeBatch feeds arbitrary payloads to the WAL record decoder. The
// bytes are untrusted twice over: a crash can tear the last record on
// disk, and a follower decodes the leader's records off the network.
// Garbage must be rejected with an error, never a panic, and anything
// accepted must re-encode to exactly the bytes it was decoded from.
func FuzzDecodeBatch(f *testing.F) {
	enc := func(version uint64, ops []stream.Op) []byte {
		b, err := encodeBatch(version, ops)
		if err != nil {
			panic(err)
		}
		return b
	}
	f.Add(enc(1, nil))
	f.Add(enc(2, []stream.Op{{Op: stream.OpUpsert, Src: 0, Dst: 1}}))
	f.Add(enc(3, []stream.Op{
		{Op: stream.OpUpsert, Src: 0, Dst: 1, Weight: fp(2.5)},
		{Op: stream.OpDelete, Src: 3, Dst: 4},
		{Op: stream.OpUpsert, Src: -1, Dst: math.MaxInt64, Weight: fp(math.Inf(-1))},
	}))
	whole := enc(4, []stream.Op{{Op: stream.OpDelete, Src: 7, Dst: 8, Weight: fp(1)}})
	f.Add(whole[:len(whole)-3]) // weight truncated
	f.Add(whole[:20])           // op truncated
	f.Add(whole[:11])           // header truncated
	f.Add(append(bytes.Clone(whole), 0))
	flags := bytes.Clone(whole)
	flags[12] |= 0x80 // unknown flag bit
	f.Add(flags)

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeBatch(payload)
		if err != nil {
			return // clean rejection
		}
		again, err := encodeBatch(rec.Version, rec.Ops)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, payload)
		}
	})
}
